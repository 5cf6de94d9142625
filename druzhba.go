// Package druzhba is a programmable switch simulator for testing compilers
// that target high speed programmable packet-processing substrates, a Go
// reproduction of "Testing Compilers for Programmable Switches Through
// Switch Hardware Simulation" (Wong, Varma, Sivaraman, 2020).
//
// Druzhba models the low-level hardware primitives of an RMT-style switch
// pipeline — PHV containers, input multiplexers, stateless and stateful
// ALUs expressed in an ALU DSL, and output multiplexers — and executes
// machine code programs (name -> integer pairs) against that model. A
// compiler targeting the instruction set is tested by fuzzing: random PHVs
// flow through both the simulated pipeline and a high-level specification,
// and the output traces are compared (Fig. 5 of the paper).
//
// The package is a thin facade over the internal packages:
//
//	internal/lex          the one scanner, token cursor and expression ladder under the three front ends
//	internal/aludsl       the ALU DSL (Fig. 3/4)
//	internal/atoms        the Banzai atom library (6 stateful + 5 stateless)
//	internal/machinecode  machine code pairs and the naming convention
//	internal/core         the RMT machine model: the AST interpreter (unoptimized) and the flat programs
//	internal/opt          SCC propagation and function inlining (Fig. 6), dgen's passes
//	internal/codegen      dgen's Go source emission
//	internal/sim          dsim: tick simulation, traffic gen, fuzzing
//	internal/campaign     dfarm: parallel fuzzing campaigns over job matrices
//	internal/verify       dverify: SAT-based bounded equivalence proofs (§7)
//	internal/farmd        dfarmd: the campaign daemon and its shard caches
//	internal/domino       the mini-Domino frontend (specs)
//	internal/spec         the 12 Table-1 benchmark programs
//	internal/synth        the Chipmunk-substitute synthesis compiler
//	internal/p4 + drmt    the dRMT model (§4)
//
// # Quick start
//
//	spec := druzhba.Config{Depth: 2, Width: 1, StatefulAtom: "if_else_raw"}
//	pipe, err := druzhba.BuildPipeline(spec, code, druzhba.SCCInlining)
//	report, err := druzhba.FuzzPipeline(pipe, mySpec, 42, 50000, 0, nil)
package druzhba

import (
	"context"
	"fmt"
	"io"
	"time"

	"druzhba/internal/atoms"
	"druzhba/internal/campaign"
	"druzhba/internal/codegen"
	"druzhba/internal/core"
	"druzhba/internal/domino"
	"druzhba/internal/fabric"
	"druzhba/internal/farmd"
	"druzhba/internal/machinecode"
	"druzhba/internal/phv"
	"druzhba/internal/sim"
	"druzhba/internal/spec"
	"druzhba/internal/synth"
	"druzhba/internal/verify"
)

// OptLevel re-exports the pipeline-generation optimization levels.
type OptLevel = core.OptLevel

// Optimization levels: the paper's three (Fig. 6) plus Compiled, whose ALU
// bodies are lowered to straight-line register code — the role the Rust
// compiler plays for the paper's generated pipeline descriptions, without
// leaving the process. SCCPropagation and SCCInlining name the source shapes
// dgen emits; in process every level above Unoptimized builds the Compiled
// pipeline, whose lowering takes the machine code's choices and folds
// constants as those passes do.
const (
	Unoptimized    = core.Unoptimized
	SCCPropagation = core.SCCPropagation
	SCCInlining    = core.SCCInlining
	Compiled       = core.Compiled
)

// AllLevels lists every optimization level in increasing order — the
// paper's three plus Compiled, the full matrix axis swept by campaigns.
func AllLevels() []OptLevel { return core.AllLevels() }

// Pipeline is an executable pipeline description.
type Pipeline = core.Pipeline

// MachineCode is a machine code program: ordered name -> value pairs.
type MachineCode = machinecode.Program

// FuzzReport is the outcome of a fuzzing session.
type FuzzReport = sim.FuzzReport

// Spec is a high-level specification consumed by the fuzzer.
type Spec = sim.Spec

// Config describes the simulated hardware: pipeline dimensions and the
// names of the ALU DSL atoms instantiated in every stage.
type Config struct {
	Depth int // pipeline stages
	Width int // ALUs of each kind per stage

	// PHVLen is the number of PHV containers (0 = Width).
	PHVLen int

	// Bits is the datapath bit width (0 = 32).
	Bits int

	// StatefulAtom names the stateful ALU from the atom library
	// (empty = no stateful ALUs). See AtomNames.
	StatefulAtom string

	// StatelessAtom names the stateless ALU (empty = "stateless_full").
	StatelessAtom string
}

// coreSpec lowers a Config to the internal representation.
func (c Config) coreSpec() (core.Spec, error) {
	s := core.Spec{Depth: c.Depth, Width: c.Width, PHVLen: c.PHVLen}
	if c.Bits != 0 {
		w, err := phv.NewWidth(c.Bits)
		if err != nil {
			return s, err
		}
		s.Bits = w
	}
	statelessName := c.StatelessAtom
	if statelessName == "" {
		statelessName = "stateless_full"
	}
	stateless, err := atoms.Load(statelessName)
	if err != nil {
		return s, err
	}
	s.StatelessALU = stateless
	if c.StatefulAtom != "" {
		stateful, err := atoms.Load(c.StatefulAtom)
		if err != nil {
			return s, err
		}
		s.StatefulALU = stateful
	}
	return s, nil
}

// AtomNames lists the ALU atoms available to Config, sorted.
func AtomNames() []string { return atoms.Names() }

// ParseMachineCode reads a machine code file ("name = value" lines).
func ParseMachineCode(r io.Reader) (*MachineCode, error) {
	return machinecode.Parse(r)
}

// NewMachineCode returns an empty machine code program.
func NewMachineCode() *MachineCode { return machinecode.New() }

// BuildPipeline compiles a hardware config and machine code into an
// executable pipeline at the given optimization level (dgen, §3.1-3.2).
func BuildPipeline(cfg Config, code *MachineCode, level OptLevel) (*Pipeline, error) {
	s, err := cfg.coreSpec()
	if err != nil {
		return nil, err
	}
	return core.Build(s, code, level)
}

// RequiredPairs lists every machine code pair the config's pipeline needs,
// with its valid value count (0 = unbounded immediate).
func RequiredPairs(cfg Config) ([]core.HoleSpec, error) {
	s, err := cfg.coreSpec()
	if err != nil {
		return nil, err
	}
	return s.RequiredPairs()
}

// ValidateMachineCode reports every missing or out-of-range pair.
func ValidateMachineCode(cfg Config, code *MachineCode) ([]error, error) {
	s, err := cfg.coreSpec()
	if err != nil {
		return nil, err
	}
	return s.Validate(code), nil
}

// GeneratePipelineSource emits the pipeline description as Go source text
// (dgen's output; Fig. 6 shows the three shapes).
func GeneratePipelineSource(cfg Config, code *MachineCode, level OptLevel, pkg string) (string, error) {
	s, err := cfg.coreSpec()
	if err != nil {
		return "", err
	}
	return codegen.Generate(s, code, codegen.Options{Level: level, Package: pkg})
}

// Simulate runs n random PHVs (from a seeded traffic generator bounded by
// maxValue; 0 = full range) through the pipeline and returns the simulation
// result with input and output traces (dsim, §3.3).
func Simulate(p *Pipeline, seed int64, n int, maxValue int64) (*sim.Result, error) {
	gen := sim.NewTrafficGen(seed, p.PHVLen(), p.Bits(), maxValue)
	return sim.Run(p, gen.Trace(n))
}

// ParseDominoSpec parses a mini-Domino program and binds its packet fields
// to PHV containers, yielding a specification for fuzzing.
func ParseDominoSpec(src string, fields map[string]int, bits int) (Spec, error) {
	prog, err := domino.Parse(src)
	if err != nil {
		return nil, err
	}
	w := phv.Default32
	if bits != 0 {
		w, err = phv.NewWidth(bits)
		if err != nil {
			return nil, err
		}
	}
	return domino.NewPHVSpec(prog, domino.FieldMap(fields), w)
}

// FuzzPipeline runs the Fig. 5 compiler-testing workflow: n random PHVs
// through the pipeline and the specification, comparing outputs on the
// given containers (nil = all; an index outside the PHV is an error). For a
// Domino specification (ParseDominoSpec) at a prechecked level the fuzzer
// executes only the ALUs that can reach an output container, fused into one
// flat program (core.Pipeline.Cone) with the specification linked after
// it; any other specification, and any pipeline at the unoptimized level,
// runs on the tick loop over a clone. p is not mutated.
func FuzzPipeline(p *Pipeline, spec Spec, seed int64, n int, maxValue int64, containers []int) (*FuzzReport, error) {
	return sim.FuzzRandom(p, spec, seed, n, maxValue, sim.FuzzOptions{Containers: containers})
}

// CampaignJob is one cell of a campaign matrix: an architecture-specific
// target under test (an RMT pipeline against a high-level specification,
// or a dRMT ISA machine against the interpreted mini-P4 semantics) plus
// the traffic that tests it.
type CampaignJob = campaign.Job

// CampaignOptions configures a campaign run (worker pool size, shard size,
// counterexample cap, fail-fast).
type CampaignOptions = campaign.Options

// CampaignReport is the merged outcome of a campaign; absent fail-fast it
// is bit-identical for every worker count.
type CampaignReport = campaign.Report

// RunCampaign executes a parallel fuzzing campaign (dfarm): each job's
// packets are sharded into deterministic sub-seeded chunks, its pipeline
// is built once by the first shard a cache cannot replay, shards run on a
// bounded worker pool over cloned pipelines, and results merge into a worker-count-independent report. The
// context cancels the whole campaign.
func RunCampaign(ctx context.Context, jobs []CampaignJob, opts CampaignOptions) (*CampaignReport, error) {
	return campaign.Run(ctx, jobs, opts)
}

// Table1Campaign builds the default dfarm job matrix: every Table-1
// benchmark at every optimization level (the paper's three plus Compiled),
// packets PHVs each.
func Table1Campaign(packets int) ([]CampaignJob, error) {
	return campaign.Table1Matrix(packets)
}

// DRMTCampaign builds the default dRMT job matrix (dfarm -arch drmt):
// every registered dRMT benchmark, packets packets each, fuzzing the
// ISA-level machine (§7) against the interpreted mini-P4 semantics (§4).
func DRMTCampaign(packets int) ([]CampaignJob, error) {
	return campaign.DRMTDefaultMatrix(packets)
}

// RunDRMTCampaign executes the default dRMT campaign: DRMTCampaign's job
// matrix under RunCampaign's deterministic sharded engine. The report is
// byte-identical for every worker count.
func RunDRMTCampaign(ctx context.Context, packets int, opts CampaignOptions) (*CampaignReport, error) {
	jobs, err := DRMTCampaign(packets)
	if err != nil {
		return nil, err
	}
	return campaign.Run(ctx, jobs, opts)
}

// VerifyCampaign builds the verification campaign job matrix (dfarm -mode
// verify): one job per Table-1 benchmark, with cells spanning the bits ×
// steps proof grid (empty slices take the campaign defaults). Each cell is
// an independent bounded equivalence proof sharded onto the worker pool;
// maxConflicts bounds solver effort per cell (0 = unlimited).
func VerifyCampaign(bits, steps []int, maxConflicts int64) ([]CampaignJob, error) {
	return campaign.VerifyMatrix(spec.All(), bits, steps, nil, maxConflicts)
}

// RunCampaignMatrix executes every phase of a matrix request (fuzz,
// verify, or both — dfarm's -mode axis) and returns one merged report. In
// both mode verification runs first and its counterexample traces are
// replayed as seed traffic at the start of every fuzz shard.
func RunCampaignMatrix(ctx context.Context, req *CampaignMatrixRequest, opts CampaignOptions) (*CampaignReport, error) {
	return farmd.RunMatrix(ctx, req, opts)
}

// ShardCache is the campaign engine's pluggable content-addressed
// shard-result store: results replay byte-identically into later reports,
// so a warm cache changes counters, never rows.
type ShardCache = campaign.ShardCache

// NewShardCache builds the standard cache stack (dfarmd's): a bounded
// in-memory LRU of memEntries shard results (0 = 4096), tiered over a
// persistent on-disk directory when dir is non-empty.
func NewShardCache(memEntries int, dir string) (ShardCache, error) {
	return NewShardCacheLimit(memEntries, dir, 0)
}

// NewShardCacheLimit is NewShardCache with a byte cap on the on-disk tier:
// past maxDiskBytes the least recently used job segments are evicted, so a
// long-running service's disk footprint stays bounded (0 = unbounded).
func NewShardCacheLimit(memEntries int, dir string, maxDiskBytes int64) (ShardCache, error) {
	mem := farmd.NewMemCache(memEntries)
	if dir == "" {
		return mem, nil
	}
	disk, err := farmd.NewDirCacheLimit(dir, maxDiskBytes)
	if err != nil {
		return nil, err
	}
	return farmd.NewTiered(mem, disk), nil
}

// CampaignServerConfig configures ServeCampaigns (shard cache, per-campaign
// worker pool, concurrent-campaign bound, default per-job timeout).
type CampaignServerConfig = farmd.Config

// CampaignMatrixRequest describes a campaign job matrix as data — the JSON
// protocol of the dfarmd service and the programmatic form of dfarm's
// flags.
type CampaignMatrixRequest = farmd.MatrixRequest

// ServeCampaigns runs the long-running campaign service (dfarmd) on addr
// until ctx is cancelled: clients POST job matrices to /v1/campaigns and
// receive one NDJSON row per job as jobs complete, in matrix order, plus a
// summary row; cfg.Cache replays unchanged shards so resubmitted matrices
// execute nothing.
func ServeCampaigns(ctx context.Context, addr string, cfg CampaignServerConfig) error {
	return farmd.Serve(ctx, addr, cfg, 0)
}

// SubmitCampaign submits a job matrix to a running campaign service and
// reassembles the streamed rows into a report that renders byte-identically
// to an offline RunCampaign of the same matrix (the server's cache and
// timing metadata ride along in Report.Cache/Timing).
func SubmitCampaign(ctx context.Context, serverURL string, req *CampaignMatrixRequest) (*CampaignReport, error) {
	return farmd.Submit(ctx, serverURL, req)
}

// CampaignCoordinatorConfig configures a distributed campaign coordinator
// (worker fleet TTL, lease retry/backoff/poison policy, the shared shard
// store, journal directory, auth token).
type CampaignCoordinatorConfig = fabric.CoordConfig

// CampaignCoordinator is the distributed campaign fabric's control plane
// (dcoord): it splits campaign matrices into shard leases dispatched to
// registered dfarmd workers with retry, backoff and poison quarantine,
// journals every row for resumable streams and restart recovery, serves
// the fleet's shared shard store, and degrades gracefully to local
// execution when the fleet drains — all while streaming reports
// byte-identical to a single-process run.
type CampaignCoordinator = fabric.Coordinator

// NewCampaignCoordinator builds a coordinator and recovers its journal:
// completed campaigns replay from disk, unfinished ones re-run.
func NewCampaignCoordinator(cfg CampaignCoordinatorConfig) (*CampaignCoordinator, error) {
	return fabric.NewCoordinator(cfg)
}

// ServeCampaignCoordinator runs a coordinator on addr until ctx is
// cancelled, then shuts down gracefully: subscriber streams drain,
// producers stop (their campaigns stay journaled for the next process) and
// the shard store's disk tier flushes.
func ServeCampaignCoordinator(ctx context.Context, addr string, c *CampaignCoordinator, drain time.Duration) error {
	return fabric.Serve(ctx, addr, c, drain)
}

// SynthesizeOptions configures Synthesize.
type SynthesizeOptions = synth.Options

// SynthesizeResult is the outcome of a synthesis run.
type SynthesizeResult = synth.Result

// Synthesize searches for machine code implementing the specification on
// the configured hardware (the Chipmunk-substitute compiler of §5.2).
func Synthesize(cfg Config, target Spec, opts SynthesizeOptions) (*SynthesizeResult, error) {
	s, err := cfg.coreSpec()
	if err != nil {
		return nil, err
	}
	return synth.Synthesize(s, target, opts)
}

// VerifyOptions configures Prove (bit width, unrolled transactions, input
// constraints, solver budget).
type VerifyOptions = verify.Options

// VerifyResult is the outcome of an equivalence proof: either a proof that
// the machine code matches the specification for every input of the
// verification width, or a concrete counterexample trace.
type VerifyResult = verify.Result

// Prove formally verifies machine code against a mini-Domino specification
// (the §7 direction: "transformed into SMT formulas so that equivalence
// can be formally proven"). Where FuzzPipeline samples random inputs,
// Prove covers every input of the verification bit width exhaustively via
// an internal SAT solver, and returns a counterexample input trace when
// the machine code is wrong. A specification that fails on some input the
// options admit is never proved: Prove returns its error.
func Prove(cfg Config, code *MachineCode, dominoSrc string, fields map[string]int, opts VerifyOptions) (*VerifyResult, error) {
	return ProveContext(context.Background(), cfg, code, dominoSrc, fields, opts)
}

// ProveContext is Prove under a context: cancellation (or a deadline)
// interrupts the SAT solve and reports an unknown verdict instead of
// running to completion, so callers can bound proof wall clock.
func ProveContext(ctx context.Context, cfg Config, code *MachineCode, dominoSrc string, fields map[string]int, opts VerifyOptions) (*VerifyResult, error) {
	s, err := cfg.coreSpec()
	if err != nil {
		return nil, err
	}
	prog, err := domino.Parse(dominoSrc)
	if err != nil {
		return nil, err
	}
	return verify.EquivalenceContext(ctx, s, code, prog, domino.FieldMap(fields), opts)
}

// Version identifies the library.
const Version = "1.0.0"

// String renders a Config for logs.
func (c Config) String() string {
	return fmt.Sprintf("pipeline %dx%d (phv=%d, stateful=%s)", c.Depth, c.Width, c.PHVLen, c.StatefulAtom)
}
