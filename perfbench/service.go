package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parlouvain"
	"parlouvain/internal/gencli"
	"parlouvain/internal/graph"
	"parlouvain/internal/obs"
	"parlouvain/internal/serve"
)

// service-small: an in-process serve.Store behind HTTP on loopback, loaded
// by a closed loop of clients that each wait for their job's SSE done frame
// before submitting the next.
const (
	svcWorkers = 2
	svcClients = 2
	svcQueue   = 16
	// svcRetries bounds how often a client resubmits after a 429 before it
	// gives the job up as failed.
	svcRetries = 20
	svcBackoff = 5 * time.Millisecond
	// svcSetupReps is how many times a run starts and warms a service;
	// setup_s is the median.
	svcSetupReps = 3
)

// svcGraphs is how many graphs each job class cycles through.
const svcGraphs = 8

// job is one entry of the fixed cyclic job sequence: an engine and the
// generator spec of the graph the job builds for itself.
type job struct {
	class int
	algo  string
	gen   string
}

// serviceJobs returns the cyclic job sequence: the four classes in turn,
// each class stepping through its own svcGraphs generator seeds, all
// derived from the workload seed. Every job runs at ranks=1.
func serviceJobs(seed uint64) []job {
	var out []job
	for g := 0; g < svcGraphs; g++ {
		for c, cl := range svcClasses {
			s := derive(seed, uint64(c*svcGraphs+g))%1_000_000 + 1
			out = append(out, job{class: c, algo: cl.algo, gen: fmt.Sprintf("%s,seed=%d", cl.gen, s)})
		}
	}
	return out
}

// svcClasses are the four job classes: an engine and a generator family.
var svcClasses = []struct{ algo, gen string }{
	{"plm", "lfr:n=2000,mu=0.3"},
	{"leiden", "lfr:n=3000,mu=0.3"},
	{"par-louvain", "lfr:n=2000,mu=0.3"},
	{"seq-louvain", "sbm:n=1000,comms=10"},
}

func (j job) spec() serve.Spec { return serve.Spec{Gen: j.gen, Algo: j.algo, Ranks: 1} }

// service is one running store with its HTTP front end.
type service struct {
	store  *serve.Store
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
}

func startService() (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		store:  serve.NewStore(serve.Config{Workers: svcWorkers, QueueDepth: svcQueue, Metrics: obs.NewRegistry()}),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * svcClients}},
	}
	s.srv = &http.Server{Handler: s.store.Handler()}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop drains the store, closes the HTTP server and waits for it.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errStore := s.store.Shutdown(ctx)
	errHTTP := s.srv.Shutdown(ctx)
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		errHTTP = errors.Join(errHTTP, err)
	}
	s.client.CloseIdleConnections()
	return errors.Join(errStore, errHTTP)
}

// jobObs is what a client saw of one job.
type jobObs struct {
	seq      int           // position in the job sequence
	latency  time.Duration // POST sent → SSE done frame received
	submit   time.Duration // POST round trip
	rejected int           // 429 answers before acceptance
	status   serve.Status  // from the done frame
	events   []obs.Event   // traced jobs only
	err      error
}

// runJob submits one job and follows its SSE stream to the done frame.
func (s *service) runJob(c job, traced bool) jobObs {
	o := jobObs{}
	body, err := json.Marshal(c.spec())
	if err != nil {
		o.err = err
		return o
	}
	t0 := time.Now()
	var st serve.Status
	for {
		code, err := s.post(body, &st)
		if err != nil {
			o.err = err
			return o
		}
		if code == http.StatusAccepted {
			break
		}
		if code != http.StatusTooManyRequests {
			o.err = fmt.Errorf("submit: HTTP %d", code)
			return o
		}
		if o.rejected++; o.rejected > svcRetries {
			o.err = fmt.Errorf("submit: gave up after %d rejections", o.rejected)
			return o
		}
		time.Sleep(svcBackoff)
	}
	o.submit = time.Since(t0)
	o.status, o.events, o.err = s.follow(st.ID, traced)
	o.latency = time.Since(t0)
	if o.err == nil && o.status.State != serve.StateDone {
		o.err = fmt.Errorf("job %s ended %s: %s", st.ID, o.status.State, o.status.Error)
	}
	return o
}

func (s *service) post(body []byte, st *serve.Status) (int, error) {
	resp, err := s.client.Post(s.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(st); err != nil {
			return 0, fmt.Errorf("decode submit reply: %w", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, nil
}

// follow reads the job's SSE stream until the terminal done frame and
// returns the final Status it carries. With traced set it also decodes
// every engine event on the stream.
func (s *service) follow(id string, traced bool) (serve.Status, []obs.Event, error) {
	var st serve.Status
	resp, err := s.client.Get(s.base + "/jobs/" + id + "/events")
	if err != nil {
		return st, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, nil, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	var events []obs.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	isDone := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: done":
			isDone = true
		case strings.HasPrefix(line, "data: ") && isDone:
			if err := json.Unmarshal([]byte(line[len("data: "):]), &st); err != nil {
				return st, nil, fmt.Errorf("decode done frame: %w", err)
			}
			return st, events, nil
		case strings.HasPrefix(line, "data: ") && traced:
			var e obs.Event
			if err := json.Unmarshal([]byte(line[len("data: "):]), &e); err != nil {
				return st, nil, fmt.Errorf("decode event: %w", err)
			}
			events = append(events, e)
		}
	}
	if err := sc.Err(); err != nil {
		return st, nil, err
	}
	return st, nil, errors.New("event stream ended without a done frame")
}

// closedLoop runs svcClients clients for d, each submitting the next job
// of the shared cyclic sequence once its previous job is done. Jobs begun
// before the deadline run to completion; the returned duration ends when
// the last one does. A zero d runs the sequence once instead.
func (s *service) closedLoop(jobs []job, d time.Duration, traced bool, tr *Tracer) ([]jobObs, time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	var out []jobObs
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if (d == 0 && k >= len(jobs)) || (d > 0 && !time.Now().Before(deadline)) {
					return
				}
				t0 := time.Now()
				o := s.runJob(jobs[k%len(jobs)], traced)
				o.seq = k % len(jobs)
				if traced {
					jobSpans(tr, t0, o)
				}
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// jobSpans records one job as a serve.job span with the client's submit
// call and the server-side queue wait and run as children.
func jobSpans(tr *Tracer, t0 time.Time, o jobObs) {
	root := tr.Add("serve.job", 0, t0, t0.Add(o.latency))
	tr.Add("serve.submit", root, t0, t0.Add(o.submit))
	created, err1 := time.Parse(time.RFC3339Nano, o.status.Created)
	started, err2 := time.Parse(time.RFC3339Nano, o.status.Started)
	finished, err3 := time.Parse(time.RFC3339Nano, o.status.Finished)
	if errors.Join(err1, err2, err3) == nil {
		tr.Add("serve.queue", root, created, started)
		tr.Add("algo.Run", root, started, finished)
	}
}

// reference is a direct solve of one class's spec, outside the service.
type reference struct {
	q      float64
	levels int
	nmi    float64
}

// references solves every job of the sequence directly through
// DetectAlgo, checks each membership and recomputed Q, and scores it
// against the generator truth.
func references(r *run, jobs []job) ([]reference, error) {
	refs := make([]reference, len(jobs))
	for i, j := range jobs {
		root, end := r.tr.Begin("bench.reference", 0)
		_, done := r.tr.Begin("gen.Generate", root)
		el, truth, err := gencli.Generate(j.gen)
		done()
		if err != nil {
			end()
			return nil, err
		}
		_, done = r.tr.Begin("graph.SplitEdges", root)
		graph.SplitEdges(el, 1)
		done()
		res, err := parlouvain.DetectAlgo(j.algo, el, parlouvain.AlgoOptions{Ranks: 1})
		end()
		if err == nil {
			err = checkMembership(res.Assignment, len(truth))
		}
		if err == nil {
			err = checkQ(graph.Build(el, len(truth)), res.Assignment, res.Q)
		}
		var s float64
		if err == nil {
			s, err = nmi(res.Assignment, truth)
		}
		r.record("reference "+j.gen+" "+j.algo, err)
		if err != nil {
			continue
		}
		refs[i] = reference{q: res.Q, levels: len(res.Levels), nmi: s}
	}
	return refs, nil
}

// serviceSetup starts a service and runs the job sequence through it once,
// so the timed loop starts warm.
func serviceSetup(jobs []job) (*service, error) {
	s, err := startService()
	if err != nil {
		return nil, err
	}
	warm, _ := s.closedLoop(jobs, 0, false, nil)
	var errs []error
	for _, o := range warm {
		errs = append(errs, o.err)
	}
	if err := errors.Join(errs...); err != nil {
		return nil, errors.Join(err, s.stop())
	}
	return s, nil
}

func runServiceSmall(r *run) error {
	jobs := serviceJobs(r.seed)
	var svc *service
	setups := make([]float64, 0, svcSetupReps)
	for i := 0; i < svcSetupReps; i++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return fmt.Errorf("stop service: %w", err)
			}
		}
		t0 := time.Now()
		var err error
		if svc, err = serviceSetup(jobs); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	heap := startHeapSampler()
	defer heap.Stop()
	heap.Take()
	var plain, traced []jobObs
	var plainWin time.Duration
	if r.trace {
		plain, _ = svc.closedLoop(jobs, r.seconds/2, false, nil)
		traced, _ = svc.closedLoop(jobs, r.seconds/2, true, r.tr)
	} else {
		plain, plainWin = svc.closedLoop(jobs, r.seconds, false, nil)
	}
	peak := heap.Take()
	if err := svc.stop(); err != nil {
		return fmt.Errorf("stop service: %w", err)
	}

	refs, err := references(r, jobs)
	if err != nil {
		return fmt.Errorf("reference solve: %w", err)
	}
	for _, set := range [][]jobObs{plain, traced} {
		for _, o := range set {
			err := o.err
			if ref := refs[o.seq]; err == nil && (o.status.Q != ref.q || o.status.Levels != ref.levels) {
				err = fmt.Errorf("job %s (%s on %s) Q %.12f over %d levels, direct solve %.12f over %d",
					o.status.ID, jobs[o.seq].algo, jobs[o.seq].gen, o.status.Q, o.status.Levels, ref.q, ref.levels)
			}
			r.record("job", err)
		}
	}

	if !r.trace {
		var lat, run []float64
		for _, o := range plain {
			if o.err == nil {
				lat = append(lat, o.latency.Seconds()*1000)
				run = append(run, o.status.RunMS/1000)
			}
		}
		if p, ok := tailPercentile(len(lat), 10); !ok || p < 0.9 {
			r.record("sample count", fmt.Errorf("%d jobs leave fewer than 10 samples beyond p90", len(lat)))
		}
		var qs, nmis []float64
		for _, ref := range refs {
			qs, nmis = append(qs, ref.q), append(nmis, ref.nmi)
		}
		r.set("setup_s", median(setups))
		r.set("solve_s", median(run))
		r.set("modularity", mean(qs))
		r.set("nmi", mean(nmis))
		r.set("peak_heap_mb", peak)
		r.set("jobs_per_s", float64(len(lat))/plainWin.Seconds())
		r.set("job_p50_ms", median(lat))
		r.set("job_p90_ms", percentile(lat, 0.9))
		return nil
	}

	r.set("gen.generate_s", spanMedian(r.tr, "gen.Generate"))
	r.set("graph.split_s", spanMedian(r.tr, "graph.SplitEdges"))
	latency := func(set []jobObs) []float64 {
		var out []float64
		for _, o := range set {
			out = append(out, o.latency.Seconds())
		}
		return out
	}
	r.set("trace.solve_s", median(latency(traced)))
	r.set("trace.overhead_frac", median(latency(traced))/median(latency(plain))-1)
	var submit, wait, run, overhead []float64
	perClass := make([][]float64, len(svcClasses))
	rejected := 0
	var algoEvents, coreEvents []obs.Event
	var coreRun time.Duration
	coreJobs := 0
	for _, o := range traced {
		rejected += o.rejected
		if o.err != nil {
			continue
		}
		ms := o.latency.Seconds() * 1000
		submit = append(submit, o.submit.Seconds()*1000)
		wait = append(wait, o.status.QueueWaitMS)
		run = append(run, o.status.RunMS)
		overhead = append(overhead, ms-o.status.QueueWaitMS-o.status.RunMS)
		perClass[jobs[o.seq].class] = append(perClass[jobs[o.seq].class], o.status.RunMS)
		algoEvents = append(algoEvents, o.events...)
		if jobs[o.seq].algo == "par-louvain" {
			coreEvents = append(coreEvents, o.events...)
			coreRun += time.Duration(o.status.RunMS * float64(time.Millisecond))
			coreJobs++
		}
	}
	r.set("serve.submit_ms", median(submit))
	r.set("serve.queue_wait_ms", median(wait))
	r.set("serve.run_ms", median(run))
	for i, c := range svcClasses {
		r.set("serve.run_ms."+c.algo, median(perClass[i]))
	}
	r.set("serve.client_overhead_ms", median(overhead))
	r.set("serve.rejected", float64(rejected))
	// Harness and phase events are summed over jobs (one rank each), then
	// averaged: the harness over every job, the engine phases over the
	// par-louvain jobs that emit them.
	if n := len(run); n > 0 {
		ph := phaseMax(algoEvents, "algo_gather", "algo_compute", "algo_broadcast")
		r.set("algo.gather_s", ph["algo_gather"].Seconds()/float64(n))
		r.set("algo.compute_s", ph["algo_compute"].Seconds()/float64(n))
		r.set("algo.broadcast_s", ph["algo_broadcast"].Seconds()/float64(n))
	}
	if coreJobs > 0 {
		names := make([]string, len(corePhases))
		for i, p := range corePhases {
			names[i] = p.event
		}
		ph := phaseMax(coreEvents, names...)
		var sum time.Duration
		for _, p := range corePhases {
			d := ph[p.event] / time.Duration(coreJobs)
			r.set("core."+p.metric+"_s", d.Seconds())
			sum += d
		}
		r.set("core.unattributed_s", (coreRun/time.Duration(coreJobs) - sum).Seconds())
	}
	r.selfTimes("serve.job")
	return nil
}
