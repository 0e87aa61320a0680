// Command loadgen is the closed-loop load harness for the louvaind job
// service: N client goroutines each submit M jobs of mixed sizes over the
// HTTP API, poll every job to completion, and report end-to-end latency
// percentiles and service throughput as JSON (the BENCH_PR9.json artifact).
//
// By default it self-hosts: an in-process serve.Store plus HTTP listener is
// stood up for the duration of the run, so the harness measures the full
// API + queue + worker-pool path without external setup. Point -addr at a
// running `louvaind -serve` daemon to load a real deployment instead.
//
//	loadgen -clients 4 -jobs 8 -o BENCH_PR9.json
//	loadgen -addr 127.0.0.1:9090 -clients 16 -jobs 20
//	loadgen -smoke          # tiny CI run, asserts every job completes
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"parlouvain/internal/buildinfo"
	"parlouvain/internal/obs"
	"parlouvain/internal/serve"
)

// mixes are the default job classes: small/medium/large generator specs
// with mixed engines, so the queue sees heterogeneous service times.
var mixes = []string{
	"ring:k=8,s=6|seq",
	"sbm:n=1000,comms=8,seed=11|louvain",
	"lfr:n=2000,mu=0.3,seed=7|louvain",
	"lfr:n=8000,mu=0.3,seed=9|louvain",
}

var smokeMixes = []string{
	"ring:k=4,s=5|seq",
	"sbm:n=200,comms=4,seed=3|louvain",
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	var (
		addr    = flag.String("addr", "", "address of a running louvaind -serve daemon; empty self-hosts an in-process service")
		clients = flag.Int("clients", 4, "concurrent closed-loop clients")
		jobs    = flag.Int("jobs", 8, "jobs per client")
		workers = flag.Int("workers", 2, "worker pool size of the self-hosted service (ignored with -addr)")
		depth   = flag.Int("queue", 64, "queue depth of the self-hosted service (ignored with -addr)")
		ranks   = flag.Int("ranks", 2, "rank-group size of every submitted job")
		seed    = flag.Int64("seed", 1, "mix-selection seed (per client: seed+client)")
		mixFlag = flag.String("mix", "", "semicolon-separated job classes as genspec|algo pairs, e.g. 'lfr:n=2000,mu=0.3|plm;ring:k=8,s=6|seq' (default: built-in small/medium/large mix)")
		outPath = flag.String("o", "", "write the JSON report here ('-' or empty: stdout)")
		smoke   = flag.Bool("smoke", false, "tiny CI run: 2 clients x 2 jobs over small graphs, fail unless every job completes")
	)
	flag.Parse()

	mix := mixes
	if *smoke {
		*clients, *jobs, *workers, *ranks = 2, 2, 2, 2
		mix = smokeMixes
	}
	if *mixFlag != "" {
		var err error
		if mix, err = parseMix(*mixFlag); err != nil {
			log.Fatal(err)
		}
	}

	base := *addr
	if base == "" {
		store := serve.NewStore(serve.Config{Workers: *workers, QueueDepth: *depth, Metrics: obs.NewRegistry()})
		mux := http.NewServeMux()
		store.Attach(mux)
		srv, err := obs.Serve("127.0.0.1:0", mux)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		base = srv.Addr
		log.Printf("self-hosted service on %s (workers %d, queue %d)", base, *workers, *depth)
	}

	report, failed := drive(base, *clients, *jobs, *ranks, *seed, mix)
	report.GoVersion = runtime.Version()
	report.Revision = buildinfo.Revision()

	out := os.Stdout
	if *outPath != "" && *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		log.Fatal(err)
	}

	if failed > 0 {
		log.Fatalf("%d/%d jobs did not complete", failed, report.Jobs)
	}
	if *smoke {
		fmt.Println("loadgen smoke OK")
	}
}

// mixSep separates job classes in -mix. Generator specs use commas between
// their parameters, so the class separator must be a character no spec or
// algorithm name contains.
const mixSep = ";"

// parseMix splits a -mix value into its genspec|algo job classes.
func parseMix(s string) ([]string, error) {
	var mix []string
	for _, class := range strings.Split(s, mixSep) {
		class = strings.TrimSpace(class)
		if class == "" {
			continue
		}
		gen, algoName, _ := strings.Cut(class, "|")
		if gen == "" || strings.Contains(algoName, "|") {
			return nil, fmt.Errorf("-mix class %q: want genspec or genspec|algo", class)
		}
		mix = append(mix, class)
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("-mix %q names no job class", s)
	}
	return mix, nil
}

// Report is the emitted JSON document.
type Report struct {
	GoVersion string `json:"go_version"`
	Revision  string `json:"revision"`
	Config    struct {
		Clients int      `json:"clients"`
		Jobs    int      `json:"jobs_per_client"`
		Ranks   int      `json:"ranks"`
		Mix     []string `json:"mix"`
	} `json:"config"`
	Jobs          int         `json:"jobs"`
	Failed        int         `json:"failed"`
	WallSeconds   float64     `json:"wall_seconds"`
	ThroughputJPS float64     `json:"throughput_jobs_per_sec"`
	Overall       LatencyStat `json:"overall"`
	// PerClass keys are the mix entries ("genspec|algo").
	PerClass map[string]LatencyStat `json:"per_class"`
}

// LatencyStat summarizes one latency population in milliseconds.
type LatencyStat struct {
	Count  int     `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

type sample struct {
	class   string
	latency time.Duration
	ok      bool
}

// drive runs the closed loop and aggregates the samples.
func drive(addr string, clients, jobs, ranks int, seed int64, mix []string) (*Report, int) {
	var wg sync.WaitGroup
	all := make([][]sample, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			for k := 0; k < jobs; k++ {
				class := mix[rng.Intn(len(mix))]
				all[c] = append(all[c], runOne(addr, class, ranks))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	rep := &Report{PerClass: map[string]LatencyStat{}}
	rep.Config.Clients = clients
	rep.Config.Jobs = jobs
	rep.Config.Ranks = ranks
	rep.Config.Mix = mix
	var overall []time.Duration
	perClass := map[string][]time.Duration{}
	failed := 0
	for _, cs := range all {
		for _, s := range cs {
			rep.Jobs++
			if !s.ok {
				failed++
				continue
			}
			overall = append(overall, s.latency)
			perClass[s.class] = append(perClass[s.class], s.latency)
		}
	}
	rep.Failed = failed
	rep.WallSeconds = wall.Seconds()
	if wall > 0 {
		rep.ThroughputJPS = float64(len(overall)) / wall.Seconds()
	}
	rep.Overall = summarize(overall)
	for class, ls := range perClass {
		rep.PerClass[class] = summarize(ls)
	}
	return rep, failed
}

// runOne submits one job and polls it to a terminal state, measuring
// submit-to-done latency (the closed-loop client's view). Submissions
// rejected with 429 back off and retry — the closed loop stays closed.
func runOne(addr, class string, ranks int) sample {
	genSpec, algoName, _ := strings.Cut(class, "|")
	if algoName == "" {
		algoName = "louvain"
	}
	body, _ := json.Marshal(serve.Spec{Gen: genSpec, Algo: algoName, Ranks: ranks})
	s := sample{class: class}
	start := time.Now()
	deadline := start.Add(5 * time.Minute)

	var id string
	for {
		resp, err := http.Post("http://"+addr+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Printf("submit: %v", err)
			return s
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if time.Now().After(deadline) {
				log.Printf("submit: backlogged past the deadline")
				return s
			}
			time.Sleep(50 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			log.Printf("submit: %d %s", resp.StatusCode, raw)
			return s
		}
		var st serve.Status
		if err := json.Unmarshal(raw, &st); err != nil {
			log.Printf("submit decode: %v", err)
			return s
		}
		id = st.ID
		break
	}

	for {
		resp, err := http.Get("http://" + addr + "/jobs/" + id)
		if err != nil {
			log.Printf("poll %s: %v", id, err)
			return s
		}
		var st serve.Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			log.Printf("poll %s decode: %v", id, err)
			return s
		}
		switch st.State {
		case serve.StateDone:
			s.ok = true
			s.latency = time.Since(start)
			return s
		case serve.StateFailed, serve.StateCancelled:
			log.Printf("job %s reached %s: %s", id, st.State, st.Error)
			return s
		}
		if time.Now().After(deadline) {
			log.Printf("job %s never finished", id)
			return s
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// summarize computes the latency quantiles of one population.
func summarize(ls []time.Duration) LatencyStat {
	st := LatencyStat{Count: len(ls)}
	if len(ls) == 0 {
		return st
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	var sum time.Duration
	for _, d := range ls {
		sum += d
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	quantile := func(q float64) float64 {
		idx := int(math.Ceil(q*float64(len(ls)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(ls) {
			idx = len(ls) - 1
		}
		return ms(ls[idx])
	}
	st.MeanMS = ms(sum) / float64(len(ls))
	st.P50MS = quantile(0.50)
	st.P90MS = quantile(0.90)
	st.P99MS = quantile(0.99)
	st.MaxMS = ms(ls[len(ls)-1])
	return st
}
