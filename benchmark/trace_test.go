package main

import (
	"bytes"
	"strings"
	"testing"
)

// ms builds a finished span from millisecond bounds.
func ms(id, parent int, name string, start, end int64) span {
	return span{ID: id, Parent: parent, Name: name, Workload: "w", Rep: 0, Start: start * 1e6, End: end * 1e6}
}

func TestSelfTimeIsSpanMinusUnionOfChildren(t *testing.T) {
	spans := []span{
		ms(0, -1, "root", 0, 100),
		ms(1, 0, "a.x", 10, 50), // two children overlapping each other 20..30 ...
		ms(2, 0, "b.y", 40, 70),
		ms(3, 1, "c.z", 20, 30),  // ... and a grandchild that only counts against span 1
		ms(4, 0, "b.y", 90, 120), // a child overhanging its parent is clipped to it
	}
	self := selfTimes(spans)
	want := map[int]int64{0: 30, 1: 30, 2: 30, 3: 10, 4: 30} // root: 100 - (10..70 ∪ 90..100)
	for id, w := range want {
		if got := self[id] / 1e6; got != w {
			t.Errorf("self time of span %d = %dms, want %dms", id, got, w)
		}
	}
}

func TestLedgerSharesSumToTheRootSpan(t *testing.T) {
	root := ms(0, -1, "campaign.run", 0, 100)
	root.Wait = true
	handler := ms(1, 0, "farmd.http.campaigns", 0, 95)
	handler.Wait = true
	spans := []span{
		root, handler,
		ms(2, 0, spanRunShard, 10, 60), // lane 1
		ms(3, 0, spanRunShard, 20, 80), // lane 2: overlaps lane 1 for 40ms
		ms(4, 0, "farmd.http.lease", 80, 90),
		ms(5, 4, "farmd.memcache.get", 82, 86), // nested: the lease is no leaf while it runs
	}
	lg := buildLedger(spans)
	got := map[string]int64{}
	var total int64
	for _, r := range lg.Rows {
		got[r.Name] = r.WallNS / 1e6
		total += r.WallNS
	}
	// 0..10 handler waits alone; 10..20 shard; 20..60 two shards share;
	// 60..80 shard; 80..82 lease; 82..86 get; 86..90 lease; 90..95 handler;
	// 95..100 only the root is open.
	want := map[string]int64{spanRunShard: 70, "farmd.http.lease": 6, "farmd.memcache.get": 4, "farmd.http.campaigns": 15}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("wall share of %s = %dms, want %dms", name, got[name], w)
		}
	}
	if lg.UnattributedN/1e6 != 5 || lg.SpanNS/1e6 != 100 {
		t.Errorf("unattributed %dms of %dms, want 5 of 100", lg.UnattributedN/1e6, lg.SpanNS/1e6)
	}
	if total+lg.UnattributedN != lg.SpanNS {
		t.Errorf("shares %d + unattributed %d != span %d", total, lg.UnattributedN, lg.SpanNS)
	}
	var buf bytes.Buffer
	lg.write(&buf, "ledger")
	for _, needle := range []string{"unattributed", "workload span", spanRunShard} {
		if !strings.Contains(buf.String(), needle) {
			t.Errorf("ledger table lacks %q:\n%s", needle, buf.String())
		}
	}
}

func TestRecorderNestsOnOneGoroutineOnly(t *testing.T) {
	var none *recorder
	none.end(none.begin("x.y")) // the untraced pass: every call is a no-op
	if none.snapshot() != nil {
		t.Fatal("nil recorder recorded something")
	}

	r := newRecorder()
	if id := r.begin("before.rep"); id != -1 {
		t.Fatalf("span outside a rep got id %d", id)
	}
	r.beginRep("w", 0, "root")
	outer := r.beginNested("farmd.http.lease", false)
	inner := r.beginNested("farmd.memcache.get", false)
	flat := r.begin(spanRunShard)
	done := make(chan int)
	go func() { // another goroutine sees none of this goroutine's stack
		id := r.beginNested("fabric.http.shard_get", false)
		r.end(id)
		done <- id
	}()
	other := <-done
	r.end(flat)
	r.end(inner)
	r.end(outer)
	r.endRep()
	byID := map[int]span{}
	for _, s := range r.snapshot() {
		byID[s.ID] = s
	}
	rootID := byID[outer].Parent
	if byID[rootID].Parent != -1 {
		t.Fatalf("outer span's parent %d is not the root", rootID)
	}
	if byID[inner].Parent != outer {
		t.Errorf("nested span's parent = %d, want %d", byID[inner].Parent, outer)
	}
	if byID[flat].Parent != rootID || byID[other].Parent != rootID {
		t.Errorf("flat span parent %d, other goroutine's parent %d, want root %d", byID[flat].Parent, byID[other].Parent, rootID)
	}
	var buf bytes.Buffer
	if err := writeNDJSON(&buf, r.snapshot()); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 5 {
		t.Errorf("NDJSON has %d lines, want 5 spans", n)
	}
}
