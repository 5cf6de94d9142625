package phv_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"druzhba/internal/drmt"
	"druzhba/internal/phv"
	"druzhba/internal/sim"
)

var updateStreams = flag.Bool("update", false, "rewrite testdata/streams.golden from the generators (on purpose only: the file pins every campaign's traffic)")

// streamDraws is how many values of each stream the golden file pins.
const streamDraws = 64

// deepSkip is where the golden file's last two streams start pinning: past
// six rounds of the lag-607 recurrence, which the first 64 draws of a
// stream never reach.
const deepSkip = 4096

// stream is one generator under test behind the surface both machine
// models' generators share: fill the next packet, restart under a seed on a
// plan of the same shape, serving corpus first.
type stream struct {
	width  int // values per packet
	fill   func(dst []phv.Value)
	start  func(seed int64, corpus [][]phv.Value) error
	corpus bool // the view serves a corpus (dRMT jobs take none)
}

// streamCase names one pinned stream and builds it for a seed.
type streamCase struct {
	name string
	seed int64
	skip int // values drawn before the pinned ones
	open func(seed int64) (stream, error)
}

// streamCases is the pinned table: RMT shapes phvLen {1,3} x max {0,100} at
// 32 bits and dRMT's l2l3 and wide-fanin field sets at max {0,16}, each in
// both modes for seeds 1 and 42; then one RMT and one dRMT stream pinned at
// draws deepSkip to deepSkip+64.
func streamCases() []streamCase {
	var cases []streamCase
	for _, mode := range []phv.TrafficMode{phv.TrafficUniform, phv.TrafficBoundary} {
		for _, seed := range []int64{1, 42} {
			for _, phvLen := range []int{1, 3} {
				for _, max := range []int64{0, 100} {
					phvLen, max, mode := phvLen, max, mode
					cases = append(cases, streamCase{
						name: fmt.Sprintf("rmt/phvLen=%d/max=%d/%s/seed=%d", phvLen, max, mode, seed),
						seed: seed,
						open: func(seed int64) (stream, error) {
							g, err := sim.NewTrafficGenMode(seed, phvLen, phv.Default32, max, mode)
							if err != nil {
								return stream{}, err
							}
							start := func(seed int64, corpus [][]phv.Value) error {
								plan, err := sim.NewTraffic(phvLen, phv.Default32, max, mode, corpus)
								if err == nil {
									g.Start(plan, seed)
								}
								return err
							}
							return stream{width: phvLen, fill: func(dst []phv.Value) { g.Fill(dst) }, start: start, corpus: true}, nil
						},
					})
				}
			}
			for _, bench := range []string{"l2l3", "wide-fanin"} {
				for _, max := range []int64{0, 16} {
					bench, max, mode := bench, max, mode
					cases = append(cases, streamCase{
						name: fmt.Sprintf("drmt/%s/max=%d/%s/seed=%d", bench, max, mode, seed),
						seed: seed,
						open: func(seed int64) (stream, error) {
							bm, err := drmt.LookupBenchmark(bench)
							if err != nil {
								return stream{}, err
							}
							prog, err := bm.Program()
							if err != nil {
								return stream{}, err
							}
							g, err := drmt.NewTrafficGenMode(seed, prog, max, mode)
							if err != nil {
								return stream{}, err
							}
							start := func(seed int64, corpus [][]phv.Value) error {
								var bits []int
								for _, f := range prog.FieldNames() {
									b, err := prog.FieldBits(f)
									if err != nil {
										return err
									}
									bits = append(bits, b)
								}
								plan, err := phv.NewTraffic(bits, max, mode, corpus)
								if err == nil {
									g.Start(plan, seed)
								}
								return err
							}
							return stream{width: g.NumFields(), fill: func(dst []phv.Value) { g.Fill(dst) }, start: start}, nil
						},
					})
				}
			}
		}
	}
	for _, c := range cases {
		if c.name == "rmt/phvLen=3/max=100/uniform/seed=1" || c.name == "drmt/wide-fanin/max=0/uniform/seed=42" {
			c.name, c.skip = fmt.Sprintf("%s/draws=%d..%d", c.name, deepSkip, deepSkip+streamDraws), deepSkip
			cases = append(cases, c)
		}
	}
	return cases
}

// window returns values skip to skip+n of what the stream has left.
func (s stream) window(skip, n int) []phv.Value { return s.take(skip + n)[skip:] }

// take returns the next n values of the stream, packet after packet.
func (s stream) take(n int) []phv.Value {
	buf := make([]phv.Value, s.width)
	out := make([]phv.Value, 0, n+s.width)
	for len(out) < n {
		s.fill(buf)
		out = append(out, buf...)
	}
	return out[:n]
}

func renderDraws(vals []phv.Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, " ")
}

// TestTrafficStreamIdentity pins the traffic both architectures' campaigns
// draw: the first values of every stream in the table must equal the golden
// file, which was captured from the two separate generators (sim's and
// drmt's) that preceded phv.TrafficGen. A generator restarted on a plan of
// the same shape, and one whose plan serves a seed corpus first, must
// continue on the same pinned stream. Shard
// results and report hashes are functions of these streams, so a diff here
// is a diff in every report.
func TestTrafficStreamIdentity(t *testing.T) {
	const path = "testdata/streams.golden"
	cases := streamCases()
	golden := map[string]string{}
	if !*updateStreams {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			name, vals, ok := strings.Cut(line, ": ")
			if !ok {
				t.Fatalf("%s: malformed line %q", path, line)
			}
			golden[name] = vals
		}
		if len(golden) != len(cases) {
			t.Fatalf("%s pins %d streams, the table has %d", path, len(golden), len(cases))
		}
	}
	var file strings.Builder
	for _, c := range cases {
		s, err := c.open(c.seed)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := renderDraws(s.window(c.skip, streamDraws))
		fmt.Fprintf(&file, "%s: %s\n", c.name, got)
		if *updateStreams {
			continue
		}
		want, ok := golden[c.name]
		if !ok {
			t.Fatalf("%s: not in %s", c.name, path)
		}
		if got != want {
			t.Errorf("%s: stream moved\n got %s\nwant %s", c.name, got, want)
			continue
		}

		// Restart: a generator left mid-stream under another seed restarts on
		// the pinned stream.
		used, err := c.open(c.seed + 1000)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		used.take(5 * used.width)
		if err := used.start(c.seed, nil); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := renderDraws(used.window(c.skip, streamDraws)); got != want {
			t.Errorf("%s: restarted stream differs\n got %s\nwant %s", c.name, got, want)
		}

		// Corpus replay: entries come first, verbatim (zero-padded or
		// truncated to the packet), and consume no randomness.
		if !s.corpus {
			continue
		}
		entries := [][]phv.Value{{7, 3, 1}, {5}}
		var prefix []phv.Value
		for _, e := range entries {
			row := make([]phv.Value, s.width)
			copy(row, e)
			prefix = append(prefix, row...)
		}
		seeded, err := c.open(c.seed + 1000)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		seeded.take(3 * seeded.width)
		if err := seeded.start(c.seed, entries); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		replay := seeded.take(len(prefix) + c.skip + streamDraws)
		if got, wantPrefix := renderDraws(replay[:len(prefix)]), renderDraws(prefix); got != wantPrefix {
			t.Errorf("%s: corpus replay differs\n got %s\nwant %s", c.name, got, wantPrefix)
		}
		if got := renderDraws(replay[len(prefix)+c.skip:]); got != want {
			t.Errorf("%s: stream after the corpus differs\n got %s\nwant %s", c.name, got, want)
		}
	}
	if *updateStreams {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(file.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
