// batch.go is the production stage kernel, the PHV-batch (struct-of-arrays)
// executor of prechecked pipelines: ExecuteStageBatch runs one stage's ALU
// run-list over a whole vector of packets held in column-major value planes
// (planes[container][packet]), hoisting the per-packet dispatch — stage
// lookup, ALU iteration set-up, closure/interpreter selection and the
// output-mux switch — out of the inner loop. The per-container output mux
// collapses to one switch per container per batch followed by a plane
// copy.
//
// Batch execution is behaviourally identical to the streaming tick loop:
// the pipeline is feedforward and every piece of mutable state is private
// to one (stage, slot) ALU, so as long as each ALU sees packets in
// admission order — which the per-ALU inner loops below preserve — the
// outputs and the final state are byte-identical to executing the packets
// one tick at a time.
package core

import (
	"fmt"

	"druzhba/internal/aludsl"
	"druzhba/internal/phv"
)

// BatchScratch holds the per-ALU result planes ExecuteStageBatch writes
// before muxing them into the output planes. Stages execute sequentially,
// so one scratch — a plane per latch slot — serves every stage of a
// pipeline; it is reused across batches and owned by a single execution
// engine (a scratch is not safe for concurrent use).
type BatchScratch struct {
	latch    [][]phv.Value // [latch slot][packet]
	capacity int
}

// Cap returns the scratch's packet capacity.
func (s *BatchScratch) Cap() int { return s.capacity }

// NewBatchScratch allocates result planes for batch execution of up to
// capacity packets per ExecuteStageBatch call.
func (p *Pipeline) NewBatchScratch(capacity int) (*BatchScratch, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("core: batch scratch capacity %d < 1", capacity)
	}
	slots := 2 * p.spec.Width
	sc := &BatchScratch{capacity: capacity, latch: make([][]phv.Value, slots)}
	backing := make([]phv.Value, slots*capacity)
	for i := range sc.latch {
		sc.latch[i] = backing[i*capacity : (i+1)*capacity : (i+1)*capacity]
	}
	return sc, nil
}

// ExecuteStageBatch is ExecuteStage for prechecked pipelines over a vector of
// n packets held in column-major planes: in[c][k] is container c of packet k,
// and the stage's results land in out[c][k]. The stage index must be in
// range and every plane (and the scratch) must have capacity >= n. Each ALU
// processes packets in index order, so stateful ALU state advances exactly as
// it would under the streaming tick loop.
//
// The kernel carries no map lookups, no bounds re-validation and no error
// path: Build validated and baked every mux selection and proved every ALU
// program total (see Prechecked), so there is no failure to report. Calling
// it on a pipeline for which Prechecked is false panics.
//
//dvet:hotpath allocs=0
func (p *Pipeline) ExecuteStageBatch(si int, in, out [][]phv.Value, sc *BatchScratch, n int) {
	if !p.Prechecked() {
		panic("core: ExecuteStageBatch on an unoptimized pipeline")
	}
	st := p.stages[si]
	for _, a := range st.run {
		runALUBatch(a, in, sc.latch[a.latch], n)
	}
	for c, sel := range st.outputMux {
		// Build's validation bounded sel to the latch slots — one mux
		// decision per container per batch, where the streaming path pays
		// it per packet.
		src := in[c]
		if sel != 0 {
			src = sc.latch[sel-1]
		}
		copy(out[c][:n], src[:n])
	}
}

// runALUBatch executes one prechecked ALU over n packets. The closure/
// interpreter selection and the operand-mux arity dispatch happen once per
// batch; common arities additionally hoist the source plane lookups out of
// the packet loop.
//
//dvet:hotpath allocs=0
func runALUBatch(a *compiledALU, in [][]phv.Value, out []phv.Value, n int) {
	ops := a.env.Operands
	mux := a.operandMux
	if cl := a.closure; cl != nil {
		state := a.state
		switch len(mux) {
		case 1:
			src0 := in[mux[0]]
			for k := 0; k < n; k++ {
				ops[0] = src0[k]
				out[k] = cl(ops, state)
			}
		case 2:
			src0, src1 := in[mux[0]], in[mux[1]]
			for k := 0; k < n; k++ {
				ops[0], ops[1] = src0[k], src1[k]
				out[k] = cl(ops, state)
			}
		case 3:
			src0, src1, src2 := in[mux[0]], in[mux[1]], in[mux[2]]
			for k := 0; k < n; k++ {
				ops[0], ops[1], ops[2] = src0[k], src1[k], src2[k]
				out[k] = cl(ops, state)
			}
		default:
			for k := 0; k < n; k++ {
				for op, idx := range mux {
					ops[op] = in[idx][k]
				}
				out[k] = cl(ops, state)
			}
		}
		return
	}
	env := &a.env
	prog := a.prog
	for k := 0; k < n; k++ {
		for op, idx := range mux {
			ops[op] = in[idx][k]
		}
		out[k] = aludsl.RunUnsafe(prog, env)
	}
}
