// Package core implements the paper's primary contribution: the sequential
// Louvain baseline (Algorithm 1) and the parallel Louvain algorithm for
// distributed memory (Algorithms 2–5) with its dynamic-threshold convergence
// heuristic (Section IV-B).
//
// The parallel engine runs one instance per rank over a comm.Comm; the
// in-process driver (RunInProcess) simulates a rank group with goroutines,
// and cmd/louvaind runs ranks as OS processes over TCP.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"parlouvain/internal/edgetable"
	"parlouvain/internal/graph"
	"parlouvain/internal/hashfn"
	"parlouvain/internal/movesched"
	"parlouvain/internal/obs"
	"parlouvain/internal/par"
	"parlouvain/internal/perf"
)

// EpsilonFunc maps an inner-loop iteration number (1-based) to the fraction
// ε of vertices allowed to migrate in that iteration (Equation 7). Values
// are clamped to [0,1] by the engine.
type EpsilonFunc func(iter int) float64

// DecayEpsilon returns the paper's intended heuristic: ε(iter) =
// p1·e^(−iter/p2), an inverse-exponential decay fitted against LFR traces
// (Figure 2). See DESIGN.md on the Equation 7 typo.
func DecayEpsilon(p1, p2 float64) EpsilonFunc {
	return func(iter int) float64 {
		return p1 * math.Exp(-float64(iter)/p2)
	}
}

// PaperLiteralEpsilon returns Equation 7 exactly as printed:
// ε = p1·e^(1/(p2·iter)). It decays toward p1 rather than 0 and is kept
// for the threshold ablation bench.
func PaperLiteralEpsilon(p1, p2 float64) EpsilonFunc {
	return func(iter int) float64 {
		return p1 * math.Exp(1/(p2*float64(iter)))
	}
}

// DefaultEpsilon is the fitted decay used when Options.Epsilon is nil:
// p1 = 1 (first iteration moves everything useful), p2 = 2 (fraction
// roughly halves every 1.4 iterations), the regression result of the
// Figure 2 harness on LFR graphs with μ ∈ [0.2, 0.6].
func DefaultEpsilon() EpsilonFunc {
	return DecayEpsilon(1.0, 2.0)
}

// DefaultStreamChunk is the streaming-exchange chunk size (bytes) used when
// Options.StreamChunk is zero: 64 KiB keeps per-chunk overhead negligible
// while leaving enough chunks per round to overlap transfer with compute.
const DefaultStreamChunk = 64 << 10

// StorageKind selects the per-level edge storage backend the refine loop
// reads from (Options.Storage). Levels are always *built* in the hash
// shards — the dynamic insert-accumulate structure of the paper — and the
// kind decides what happens once a level's graph is frozen.
type StorageKind uint8

const (
	// StorageAuto picks per level from the local entry count: small levels
	// stay on the hash shards (freezing them would cost more than it
	// saves), larger levels are compacted into a CSR. The choice is
	// rank-local and affects only local read paths, never wire contents,
	// so ranks need not agree.
	StorageAuto StorageKind = iota
	// StorageHash keeps every level on the open-addressed hash shards —
	// the seed behavior.
	StorageHash
	// StorageCSR compacts every frozen level into a CSR adjacency array
	// (edgetable.CSR) before the refine loop.
	StorageCSR
)

// String returns the flag spelling of the kind.
func (k StorageKind) String() string {
	switch k {
	case StorageAuto:
		return "auto"
	case StorageHash:
		return "hash"
	case StorageCSR:
		return "csr"
	default:
		return fmt.Sprintf("StorageKind(%d)", uint8(k))
	}
}

// ParseStorage parses the -storage flag values "hash", "csr" and "auto".
func ParseStorage(s string) (StorageKind, error) {
	switch s {
	case "auto", "":
		return StorageAuto, nil
	case "hash":
		return StorageHash, nil
	case "csr":
		return StorageCSR, nil
	default:
		return StorageAuto, fmt.Errorf("unknown storage kind %q (want hash, csr or auto)", s)
	}
}

// autoCSRMinEntries is the local In-entry count above which StorageAuto
// freezes a level into a CSR. Below it the level fits comfortably in cache
// either way and the freeze pass is pure overhead; above it the refine
// sweeps amortize the compaction within the first inner iteration.
const autoCSRMinEntries = 4096

// resolveStorage maps a StorageKind to the concrete backend for one level,
// given this rank's local In-entry count. Explicit kinds pass through.
func resolveStorage(k StorageKind, localEntries int) StorageKind {
	if k != StorageAuto {
		return k
	}
	if localEntries >= autoCSRMinEntries {
		return StorageCSR
	}
	return StorageHash
}

// Options configures either engine. The zero value is usable.
type Options struct {
	// Ctx, when non-nil, cancels the run: the parallel engine checks it at
	// every level start and every inner iteration and returns an error
	// wrapping the context's error; the whole-graph engines (Sequential,
	// Leiden, LNS) check it per level/pass and stop early with the best
	// state reached so far. nil means never canceled. The check points are
	// deterministic, so an uncanceled context leaves runs bit-identical.
	Ctx context.Context

	// MaxLevels bounds outer iterations; 0 means 32.
	MaxLevels int
	// MaxInner bounds inner iterations per level; 0 means 64.
	MaxInner int
	// MinGain is the modularity improvement below which a loop stops;
	// 0 means 1e-6.
	MinGain float64
	// ProgressGain is the per-iteration modularity improvement the
	// parallel inner loop must sustain to keep running once the decayed
	// threshold has opened (it ends after `patience` iterations below
	// this bar, keeping its best state). 0 means 1e-4.
	ProgressGain float64
	// Seed randomizes the sequential sweep order; 0 keeps natural order.
	Seed uint64

	// Epsilon is the convergence heuristic (parallel only). nil means
	// DefaultEpsilon(). Ignored when Naive is set.
	Epsilon EpsilonFunc
	// Naive disables the threshold heuristic: every vertex with positive
	// gain moves each iteration (the "parallel without heuristic"
	// baseline of Figure 4).
	Naive bool

	// Threads is the per-rank worker count (parallel Louvain, and the
	// shared-memory color-batched move phase of PLM/Leiden/LNS); 0 means 1.
	// CLI frontends resolve 0 to par.DefaultThreads() via ResolveThreads
	// before constructing Options, so the library default stays exactly 1.
	Threads int
	// Order selects the vertex visit order of the whole-graph move sweeps
	// (Sequential, PLM, Leiden, LNS): the zero value keeps each engine's
	// historical behavior (natural order, seeded shuffle when Seed is
	// set); see movesched.Ordering for the alternatives. The parallel
	// distributed engine ignores it. Exposed as -order on cmd/louvain.
	Order movesched.Ordering
	// Hash selects the In_Table's hash family; default Fibonacci. The
	// Out_Table is a flat insertion-ordered array with its own Fibonacci
	// index (outtable.go) and ignores Hash, LoadFactor and TableLayout.
	Hash hashfn.Kind
	// LoadFactor for the In_Table; 0 means the paper's 1/4.
	LoadFactor float64
	// TableLayout for the In_Table (probing by default).
	TableLayout edgetable.Layout

	// Storage selects the per-level read backend for the refine loop: the
	// hash shards a level is built in (StorageHash), a frozen CSR
	// adjacency array compacted once per level (StorageCSR), or a
	// per-level size-based choice (StorageAuto, the zero value). Results
	// are bit-identical in every mode — both backends expose the same
	// entries in the same deterministic order (pinned by the differential
	// suite) — and the resolution is rank-local, so ranks need not agree.
	// Exposed as -storage on cmd/louvain and cmd/louvaind.
	Storage StorageKind

	// Prune enables exact vertex pruning in the refine loop: a vertex is
	// re-scanned by findBest only when its last result could have changed
	// — it moved, a neighbor's move touched its community-weight row, or
	// the total weight / member count of a community it references
	// changed. Clean vertices reuse their previous best move, so results
	// stay bit-identical to unpruned runs (pinned by the differential
	// suite); sweeps after delta propagations skip the settled bulk of the
	// graph. Exposed as -prune on cmd/louvain and cmd/louvaind.
	Prune bool

	// StreamChunk selects the exchange mode of the heavy scatter phases
	// (full propagation, delta propagation, reconstruction): 0 picks
	// automatically from the transport (see ResolveStreamChunk), a
	// positive value streams with that chunk size in bytes, and a
	// negative value forces the bulk single-Exchange rounds. Streaming
	// overlaps plane building, transfer and merging; results are
	// bit-identical in every mode. Every rank of a group must set it
	// identically (the modes frame rounds differently; the automatic
	// choice is a pure function of the group's transport kind and size,
	// so it agrees across ranks). Exposed as -stream-chunk on cmd/louvain
	// and cmd/louvaind.
	StreamChunk int

	// CollectLevels, when true, gathers the per-level membership of every
	// original vertex into Result.Levels[i].Membership. Costs one
	// all-gather per level; leave false for scaling benches.
	CollectLevels bool

	// CheckInvariants verifies the algorithm's algebraic invariants after
	// every level (mass/member conservation, cross-rank assignment
	// agreement, modularity consistency and monotonicity, reconstruction
	// weight preservation — see internal/core/invariant.go) and aborts
	// with an ErrInvariant-wrapped error on violation. A few collectives
	// per level; every rank of a group must set it identically. Exposed
	// as the -check flag of cmd/louvain and cmd/louvaind, and forced on
	// in core's tests.
	CheckInvariants bool

	// Warm seeds the first level with an existing community assignment
	// (length = vertex count, labels in [0, n)) instead of singletons —
	// the dynamic-graph mode the paper motivates: after edges change,
	// re-detect starting from the previous run's Membership and converge
	// in a fraction of the from-scratch work.
	Warm []graph.V

	// TraceMoves, when non-nil, receives (level, innerIter, moved,
	// active) after every inner iteration (rank 0 only in parallel).
	TraceMoves func(level, iter, moved, active int)

	// TraceTimings, when non-nil, receives this rank's per-inner-
	// iteration phase durations (Figure 8b; rank 0 only in parallel).
	TraceTimings func(level, iter int, findBest, update, propagation time.Duration)

	// Recorder, when non-nil, receives structured telemetry from the
	// parallel engine: one "iteration" event per inner iteration (moved,
	// ε, ΔQ̂, modularity, per-phase durations), one event per timed phase,
	// and one "level" event per completed level (vertex/edge counts,
	// reconstruction time, In_Table occupancy). A single Recorder is safe
	// to share across every rank of an in-process group.
	Recorder *obs.Recorder

	// Metrics, when non-nil, registers live instruments on this registry:
	// the comm traffic counters and exchange histograms plus the
	// louvain_level / louvain_iteration / louvain_modularity gauges and
	// louvain_moves_total / louvain_iterations_total counters that
	// cmd/louvaind serves over /metrics. Shared registries across ranks
	// accumulate group totals.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.MaxLevels <= 0 {
		o.MaxLevels = 32
	}
	if o.MaxInner <= 0 {
		o.MaxInner = 64
	}
	if o.MinGain <= 0 {
		o.MinGain = 1e-6
	}
	if o.ProgressGain <= 0 {
		o.ProgressGain = 1e-4
	}
	if o.Threads <= 0 {
		o.Threads = 1
	}
	if o.LoadFactor <= 0 {
		o.LoadFactor = 0.25
	}
	if o.Epsilon == nil {
		o.Epsilon = DefaultEpsilon()
	}
	return o
}

// canceled reports the run's cancellation state: Options.Ctx's error when a
// context is attached and done, nil otherwise. Engines poll it at their
// deterministic check points (level starts, inner iterations).
func (o *Options) canceled() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// ErrCanceled tags engine errors caused by Options.Ctx cancellation; the
// chain also wraps the context's own error, so callers may match either
// errors.Is(err, core.ErrCanceled) or errors.Is(err, context.Canceled).
var ErrCanceled = errors.New("detection canceled")

// autoBulkMaxRanks bounds the group sizes for which the automatic exchange
// mode prefers bulk rounds on the in-process transport: the PR5 benchmark
// baseline (BENCH_PR5.json) measured mem-transport streaming ~9% slower
// end-to-end at 2 ranks — chunk framing and collation overhead with no
// network transfer to hide — while TCP gains from the overlap at every
// size.
const autoBulkMaxRanks = 4

// ResolveThreads maps a CLI -threads value to the concrete per-rank worker
// count: explicit positives pass through, zero (and negatives) auto-select
// par.DefaultThreads(), the usable CPU count. Frontends call this before
// building Options — the library itself keeps treating non-positive Threads
// as exactly 1 so embedded zero-value runs stay single-threaded and
// bit-stable.
func ResolveThreads(threads int) int {
	if threads > 0 {
		return threads
	}
	return par.DefaultThreads()
}

// ResolveStreamChunk maps Options.StreamChunk to the concrete exchange mode
// for a group of the given transport kind ("mem", "tcp", "sim", ...) and
// size. Explicit settings pass through; 0 selects bulk (-1) on small
// in-process groups and DefaultStreamChunk-sized streaming everywhere else.
// The result depends only on the arguments, so every rank of a group
// resolves the same mode.
func ResolveStreamChunk(chunk int, transportKind string, ranks int) int {
	if chunk != 0 {
		return chunk
	}
	if transportKind == "mem" && ranks <= autoBulkMaxRanks {
		return -1
	}
	return DefaultStreamChunk
}

// Level records one outer iteration's outcome.
type Level struct {
	// Q is the modularity at the end of the level.
	Q float64
	// Vertices is the number of active vertices (supervertices) the level
	// started with; Communities the number it produced.
	Vertices    int
	Communities int
	// InnerIterations and MovesPerIter trace the inner loop.
	InnerIterations int
	MovesPerIter    []int
	// Membership maps every ORIGINAL vertex to its community after this
	// level (only populated with Options.CollectLevels).
	Membership []graph.V
}

// Result is the outcome of a detection run.
type Result struct {
	// Levels in outer-iteration order.
	Levels []Level
	// Membership maps every original vertex to its final community
	// (labels are arbitrary but consistent). Populated when
	// CollectLevels is set, and always by the sequential engine.
	Membership []graph.V
	// Q is the final modularity.
	Q float64
	// NumVertices and NumEdges describe the input.
	NumVertices int
	NumEdges    int64
	// Duration is total wall time; FirstLevel the time to finish the
	// first outer iteration (the TEPS denominator of Figure 9).
	Duration   time.Duration
	FirstLevel time.Duration
	// SimDuration and SimFirstLevel are the BSP-model simulated parallel
	// makespans (see comm.SimGroup); zero unless the run used the
	// simulated transport (RunSimulated).
	SimDuration   time.Duration
	SimFirstLevel time.Duration
	// Breakdown is the per-phase timing of Figure 8 (max across ranks).
	Breakdown *perf.Breakdown
	// Communication totals, summed across all ranks (zero for the
	// sequential engine): bytes put on the wire and BSP exchange rounds
	// executed per rank.
	CommBytes  uint64
	CommRounds uint64
	// LeidenSplits counts the internally-disconnected communities the
	// refinement phase split, summed over all levels (Leiden engine only).
	LeidenSplits int
}

// EvolutionRatios returns |communities at level i| / |original vertices|,
// the Figure 4(b) series.
func (r *Result) EvolutionRatios() []float64 {
	out := make([]float64, len(r.Levels))
	for i, lv := range r.Levels {
		if r.NumVertices > 0 {
			out[i] = float64(lv.Communities) / float64(r.NumVertices)
		}
	}
	return out
}

// gainHistogram translates the per-vertex maximum gains m_u into the
// paper's update threshold ΔQ̂: a fixed log₂-bucketed histogram that can be
// summed across ranks with one reduction, then scanned from the top until
// the ε-fraction of vertices is covered.
type gainHistogram struct {
	counts [gainBins]uint64
}

const (
	gainBins    = 64
	gainMinExp  = -40 // bin 0 lower edge = 2^-40 ≈ 9e-13
	minMoveGain = 1e-12
)

func (h *gainHistogram) add(gain float64) {
	if gain < minMoveGain {
		return
	}
	e := math.Ilogb(gain) // floor(log2(gain))
	idx := e - gainMinExp
	if idx < 0 {
		idx = 0
	}
	if idx >= gainBins {
		idx = gainBins - 1
	}
	h.counts[idx]++
}

// threshold returns the smallest gain value such that approximately target
// vertices have gain >= threshold, scanning bins from the largest gains
// down. If every positive gain fits under target it returns minMoveGain
// (move everything positive).
func (h *gainHistogram) threshold(target uint64) float64 {
	if target == 0 {
		return math.Inf(1)
	}
	var cum uint64
	for i := gainBins - 1; i >= 0; i-- {
		cum += h.counts[i]
		if cum >= target {
			return math.Ldexp(1, i+gainMinExp) // lower edge of bin i
		}
	}
	return minMoveGain
}

// total returns the number of vertices with positive gain.
func (h *gainHistogram) total() uint64 {
	var t uint64
	for _, c := range h.counts {
		t += c
	}
	return t
}
