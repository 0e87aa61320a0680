// Command perfbench is the repository benchmark. It runs one seeded
// workload against the detection engines and the job service, times the
// calls it makes into each layer, checks every result, and prints one JSON
// object as the last line of standard output:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {"solve_s": {"value": 2.01, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end set, measured untraced; with
// -trace 1 they are the per-layer set from a traced run. Any failed or
// incorrect operation makes the command exit with status 1. Workloads,
// metrics and the layer map are described in README.md. Run it from the
// repository root:
//
//	bash perfbench/run.sh --workload lfr-dist --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solve_s", "s"},
	{"modularity", "Q"},
	{"nmi", "ratio"},
	{"peak_heap_mb", "MiB"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
}

// perLayer are the single-layer metrics of the traced run, printed with
// -trace 1. A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"gen.generate_s", "s"},
	{"graph.split_s", "s"},
	{"graph.build_s", "s"},
	{"algo.gather_s", "s"},
	{"algo.compute_s", "s"},
	{"algo.broadcast_s", "s"},
	{"core.propagation_s", "s"},
	{"core.find_best_s", "s"},
	{"core.update_s", "s"},
	{"core.reconstruction_s", "s"},
	{"core.unattributed_s", "s"},
	{"core.levels", "count"},
	{"core.inner_iters", "count"},
	{"core.moves", "count"},
	{"core.alloc_mb", "MiB"},
	{"core.plm_s", "s"},
	{"core.plm_t1_s", "s"},
	{"movesched.order_s", "s"},
	{"movesched.color_s", "s"},
	{"movesched.colors", "count"},
	{"movesched.batch_min", "count"},
	{"movesched.batch_median", "count"},
	{"edgetable.in_load_factor", "ratio"},
	{"edgetable.in_mean_probe", "probes"},
	{"edgetable.in_growths", "count"},
	{"wire.bytes_sent", "bytes"},
	{"comm.rounds", "count"},
	{"comm.exchange_s", "s"},
	{"comm.chunk_wait_s", "s"},
	{"comm.overlap_frac", "ratio"},
	{"comm.mesh_s", "s"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.run_ms.plm", "ms"},
	{"serve.run_ms.leiden", "ms"},
	{"serve.run_ms.par-louvain", "ms"},
	{"serve.run_ms.seq-louvain", "ms"},
	{"serve.client_overhead_ms", "ms"},
	{"serve.rejected", "count"},
	{"gen.self_s", "s"},
	{"graph.self_s", "s"},
	{"algo.self_s", "s"},
	{"core.self_s", "s"},
	{"movesched.self_s", "s"},
	{"serve.self_s", "s"},
	{"trace.solve_s", "s"},
	{"trace.overhead_frac", "ratio"},
}

// selfTimeLayers are the layers whose per-operation self time the traced
// run reports as <layer>.self_s.
var selfTimeLayers = []string{"gen", "graph", "algo", "core", "movesched", "serve"}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) error{
	"lfr-dist":      runLFRDist,
	"rmat-shared":   runRMATShared,
	"service-small": runServiceSmall,
}

// run holds one invocation's settings and accumulates its operations,
// failures and metrics.
type run struct {
	seed      uint64
	seconds   time.Duration // the timed window
	trace     bool
	tr        *Tracer // nil unless tracing
	attempted int
	failed    int
	values    map[string]float64
}

// record counts one attempted operation; a non-nil err marks it failed.
func (r *run) record(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		log.Printf("%s failed: %v", what, err)
	}
}

func (r *run) set(name string, v float64) { r.values[name] = v }

// selfTimes reports the per-layer self time of the spans under every root
// named rootName, averaged per root.
func (r *run) selfTimes(rootName string) {
	spans, roots := Subtrees(r.tr.Spans(), rootName)
	if roots == 0 {
		return
	}
	self := SelfTimes(spans)
	for _, layer := range selfTimeLayers {
		r.set(layer+".self_s", self[layer].Seconds()/float64(roots))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildReport selects the metric set for the mode. End-to-end metrics must
// all have been measured; per-layer metrics default to 0 for layers the
// workload does not exercise.
func buildReport(r *run) (report, error) {
	defs, strict := endToEnd, true
	if r.trace {
		defs, strict = perLayer, false
	}
	rep := report{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && strict {
			missing = append(missing, d.name)
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return rep, fmt.Errorf("metrics not measured: %v", missing)
	}
	return rep, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	var (
		workload = flag.String("workload", "", fmt.Sprintf("workload to run: %v", names))
		seed     = flag.Uint64("seed", 1, "workload seed; every generator seed derives from it")
		secs     = flag.Float64("seconds", 10, "measured duration of the run")
		trace    = flag.Int("trace", 0, "0: untraced end-to-end metrics; 1: traced per-layer metrics, spans written to .bench_build/spans/")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		log.Fatalf("unknown workload %q (want one of %v)", *workload, names)
	}
	if *secs <= 0 || (*trace != 0 && *trace != 1) {
		log.Fatalf("need -seconds > 0 and -trace 0 or 1")
	}
	r := &run{
		seed:    *seed,
		seconds: time.Duration(*secs * float64(time.Second)),
		trace:   *trace == 1,
		values:  map[string]float64{},
	}
	if r.trace {
		r.tr = newTracer()
	}
	if err := fn(r); err != nil {
		log.Fatalf("%s: %v", *workload, err)
	}
	if r.trace {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", *workload, *seed))
		if err := writeSpans(r.tr, path); err != nil {
			log.Fatalf("write spans: %v", err)
		}
	}
	rep, err := buildReport(r)
	if err != nil {
		log.Fatalf("%s: %v", *workload, err)
	}
	if rep.Attempted == 0 {
		log.Fatalf("%s: no operation attempted", *workload)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		log.Fatalf("encode report: %v", err)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

func writeSpans(tr *Tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// derive returns an independent generator seed for one use of the workload
// seed (splitmix64 finalizer over seed and salt).
func derive(seed, salt uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + salt*0xbf58476d1ce4e5b9 + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
