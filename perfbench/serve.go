package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"parcolor"
	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/serve"
)

// reqKind is one request shape of the serve mix.
type reqKind struct {
	name      string
	generator string
	n, smokeN int
	edges     bool // send the graph as an explicit edge list instead of a generator spec
	algorithm string
}

// serveKinds is the request mix. Fresh requests cycle through it in order,
// and every repeat copies an earlier fresh request, so each kind is sent
// cold and cached equally often.
var serveKinds = []reqKind{
	{name: "det-chunglu", generator: "chunglu", n: 4000, smokeN: 300, algorithm: "deterministic"},
	{name: "det-mixed", generator: "mixed", n: 200, smokeN: 100, algorithm: "deterministic"},
	{name: "det-edges", generator: "gnp-sparse", n: 20_000, smokeN: 500, edges: true, algorithm: "deterministic"},
	{name: "jp-chunglu", generator: "chunglu", n: 4000, smokeN: 300, algorithm: "jp"},
	{name: "jp-edges", generator: "gnp-sparse", n: 20_000, smokeN: 500, edges: true, algorithm: "jp"},
}

const (
	// serveRate is the open-loop arrival rate in requests per second, below
	// saturation on a 2-vCPU host.
	serveRate = 5.0
	// repeatGap is how many requests after a fresh request its repeat is
	// due. Every odd request at or past the gap is a repeat, so about half
	// the requests repeat an earlier instance; the gap leaves the cold solve
	// time to finish and fill the cache before the repeat arrives.
	repeatGap = 7
)

// serveReq is one scheduled request and, after the run, its outcome.
type serveReq struct {
	kind   reqKind
	repeat int // index of the request this one repeats, or -1
	in     *parcolor.Instance
	body   []byte

	due, sent, done time.Time
	status          int
	resp            serve.SolveResponse
	err             error
}

// serveSchedule is a serve run's generated inputs.
type serveSchedule struct {
	reqs []*serveReq
	warm []*serveReq // one per kind, outside the measured set
	gen  []time.Duration
}

// buildRequest generates one instance and its request body.
func buildRequest(k reqKind, n int, seed uint64, gen *[]time.Duration) (*serveReq, error) {
	t0 := time.Now()
	g, err := graph.Named(k.generator, n, seed)
	if err != nil {
		return nil, err
	}
	*gen = append(*gen, time.Since(t0))
	spec := serve.GraphSpec{N: n, Generator: k.generator, Seed: seed}
	if k.edges {
		spec = serve.GraphSpec{N: g.N(), Edges: g.Edges(nil)}
	}
	body, err := json.Marshal(serve.SolveRequest{Graph: spec, Algorithm: k.algorithm, IncludeColors: true})
	if err != nil {
		return nil, err
	}
	return &serveReq{kind: k, repeat: -1, in: parcolor.TrivialPalettes(g), body: body}, nil
}

// makeSchedule lays out serveRate×seconds requests.
func makeSchedule(cfg config) (*serveSchedule, error) {
	total := int(serveRate * float64(cfg.seconds))
	fresh := 0
	for i := range total {
		if !isRepeat(i) {
			fresh++
		}
	}
	seeds, warmSeed := derivedSeeds(cfg.workload, cfg.seed, fresh)
	sch := &serveSchedule{}
	f := 0
	for i := range total {
		if isRepeat(i) {
			prev := sch.reqs[i-repeatGap]
			sch.reqs = append(sch.reqs, &serveReq{kind: prev.kind, repeat: i - repeatGap, in: prev.in, body: prev.body})
			continue
		}
		k := serveKinds[f%len(serveKinds)]
		r, err := buildRequest(k, kindSize(k, cfg), seeds[f], &sch.gen)
		if err != nil {
			return nil, err
		}
		sch.reqs = append(sch.reqs, r)
		f++
	}
	var discard []time.Duration
	for j, k := range serveKinds {
		r, err := buildRequest(k, kindSize(k, cfg), splitmix64(warmSeed+uint64(j)), &discard)
		if err != nil {
			return nil, err
		}
		sch.warm = append(sch.warm, r)
	}
	return sch, nil
}

func isRepeat(i int) bool { return i%2 == 1 && i >= repeatGap }

func kindSize(k reqKind, cfg config) int {
	if cfg.smoke {
		return k.smokeN
	}
	return k.n
}

// loopback is an in-process serve.Server behind a real loopback listener.
type loopback struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

func startLoopback() (*loopback, error) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String() + "/v1/solve",
		served: make(chan error, 1),
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     runtime.GOMAXPROCS(0),
				MaxIdleConnsPerHost: runtime.GOMAXPROCS(0),
				DisableCompression:  true,
			},
		},
	}
	go func() { lb.served <- lb.hs.Serve(ln) }()
	return lb, nil
}

// stop shuts the server down and waits for its accept loop to exit.
func (lb *loopback) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := lb.hs.Shutdown(ctx)
	lb.client.CloseIdleConnections()
	if serveErr := <-lb.served; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	return err
}

// send issues one request and decodes the response into r.
func (lb *loopback) send(r *serveReq) {
	r.sent = time.Now()
	defer func() { r.done = time.Now() }()
	resp, err := lb.client.Post(lb.url, "application/json", bytes.NewReader(r.body))
	if err != nil {
		r.err = err
		return
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		r.err = err
		return
	}
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
		return
	}
	r.err = json.Unmarshal(data, &r.resp)
}

// check verifies a response's coloring against the original instance and,
// for a repeat, that it is bit-identical to the cold answer.
func (r *serveReq) check(reqs []*serveReq) error {
	if r.err != nil {
		return r.err
	}
	if err := d1lc.Verify(r.in, &parcolor.Coloring{Colors: r.resp.Colors}); err != nil {
		return err
	}
	if r.repeat >= 0 {
		if first := reqs[r.repeat]; first.err == nil && !slices.Equal(first.resp.Colors, r.resp.Colors) {
			return fmt.Errorf("repeat of request %d returned a different coloring", r.repeat)
		}
	}
	return nil
}

// serveSetUp generates the schedule, starts the server and sends the
// warm-up requests; its wall time is what setup_s measures.
func serveSetUp(cfg config) (*serveSchedule, *loopback, time.Duration, error) {
	t0 := time.Now()
	sch, err := makeSchedule(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	lb, err := startLoopback()
	if err != nil {
		return nil, nil, 0, err
	}
	for _, r := range sch.warm {
		lb.send(r)
		if err := r.check(nil); err != nil {
			return nil, nil, 0, errors.Join(fmt.Errorf("warm-up %s: %w", r.kind.name, err), lb.stop())
		}
	}
	return sch, lb, time.Since(t0), nil
}

// gauges samples the server's queue depth and busy slots during a run.
type gauges struct {
	stop          chan struct{}
	wg            sync.WaitGroup
	queue, flight []float64
}

func startGauges(srv *serve.Server) *gauges {
	g := &gauges{stop: make(chan struct{})}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
				g.queue = append(g.queue, float64(srv.QueueDepth()))
				g.flight = append(g.flight, float64(srv.Inflight()))
			}
		}
	}()
	return g
}

func (g *gauges) halt() {
	close(g.stop)
	g.wg.Wait()
}

// runServeWorkload drives the in-process server as an open loop at
// serveRate, timing every request from the moment it was due.
func runServeWorkload(cfg config) (map[string]float64, tally, error) {
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var (
		sch    *serveSchedule
		lb     *loopback
		setups []float64
	)
	for range reps {
		if lb != nil {
			if err := lb.stop(); err != nil {
				return nil, tally{}, err
			}
		}
		sch, lb = nil, nil
		runtime.GC() // start each phase from the same heap state
		s, l, d, err := serveSetUp(cfg)
		if err != nil {
			return nil, tally{}, err
		}
		sch, lb = s, l
		setups = append(setups, d.Seconds())
	}
	lb.srv.Collector().SnapshotAndReset() // drop the warm-up solves' events

	runtime.GC() // start each phase from the same heap state
	heap := startHeapSampler()
	gauge := startGauges(lb.srv)
	cpu0 := cpuTime()
	interval := time.Duration(float64(time.Second) / serveRate)
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	lags := make([]time.Duration, len(sch.reqs))
	for i, r := range sch.reqs {
		r.due = start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(r.due))
		lags[i] = time.Since(r.due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			lb.send(r)
		}()
	}
	wg.Wait()
	end := time.Now()
	cpu := cpuTime() - cpu0
	gauge.halt()
	peak := heap.peakMB()
	phases := lb.srv.Collector().Snapshot()
	if err := lb.stop(); err != nil {
		return nil, tally{}, err
	}

	var (
		t                                  tally
		latency, coldSolve, colors, rounds []float64
		hitGen, hitEdges, miss, transport  []float64
		verify                             []float64
		hits, refused, coldDet             int
	)
	for i, r := range sch.reqs {
		t1 := time.Now()
		err := r.check(sch.reqs)
		verifyTime := time.Since(t1)
		if r.status == http.StatusTooManyRequests {
			refused++
		}
		if !t.check(err, fmt.Sprintf("request %d (%s)", i, r.kind.name)) {
			continue
		}
		verify = append(verify, verifyTime.Seconds())
		lat := float64(r.done.Sub(r.due).Nanoseconds()) / 1e6
		latency = append(latency, lat)
		transport = append(transport, float64(r.done.Sub(r.sent).Nanoseconds())/1e6-r.resp.ElapsedMillis)
		switch {
		case r.resp.Cached && r.kind.edges:
			hits++
			hitEdges = append(hitEdges, lat)
		case r.resp.Cached:
			hits++
			hitGen = append(hitGen, lat)
		default:
			miss = append(miss, lat)
			if r.kind.algorithm == "deterministic" {
				coldDet++
				coldSolve = append(coldSolve, r.resp.ElapsedMillis/1e3)
			}
		}
		if r.repeat < 0 {
			colors = append(colors, float64(r.resp.DistinctColors))
			rounds = append(rounds, float64(r.resp.Rounds))
		}
	}
	ok := t.attempted - t.failed
	window := end.Sub(start).Seconds()
	if !cfg.trace {
		return map[string]float64{
			"setup_s":        median(setups),
			"solve_s":        median(coldSolve),
			"colors":         mean(colors),
			"rounds":         mean(rounds),
			"peak_heap_mb":   peak,
			"ok_frac":        ratio(float64(ok), float64(t.attempted)),
			"latency_p50_ms": quantile(latency, 0.5),
			"latency_p90_ms": quantile(latency, 0.9),
			"served_per_s":   ratio(float64(ok), window),
		}, t, nil
	}

	vals := map[string]float64{
		"graph.gen_s":            mean(seconds(sch.gen)),
		"d1lc.verify_s":          mean(verify),
		"par.cpu_util":           ratio(cpu.Seconds(), window*float64(runtime.GOMAXPROCS(0))),
		"serve.hit_frac":         ratio(float64(hits), float64(ok)),
		"serve.hit_p50_ms":       median(hitGen),
		"serve.ingest_p50_ms":    median(hitEdges),
		"serve.miss_p50_ms":      median(miss),
		"serve.queue_wait_ms":    mean(gauge.queue) / serveRate * 1e3,
		"serve.slot_util":        mean(gauge.flight) / float64(runtime.GOMAXPROCS(0)),
		"serve.refused":          float64(refused),
		"serve.transport_p50_ms": median(transport),
		"loadgen.lag_p99_ms":     quantile(millis(lags), 0.99),
	}
	arcs := 0.0
	fresh := 0
	for _, r := range sch.reqs {
		if r.repeat < 0 {
			arcs += float64(2 * r.in.G.M())
			fresh++
		}
	}
	vals["graph.arcs"] = ratio(arcs, float64(fresh))
	phaseVals(vals, phases, coldDet)

	rec := newRecorder()
	runSpan := rec.open(0, "run")
	wlSpan := rec.open(runSpan, "workload/serve")
	for i, r := range sch.reqs {
		rec.add(wlSpan, "request/"+r.kind.name, r.due, r.done, map[string]int64{
			"index":             int64(i),
			"repeat_of":         int64(r.repeat),
			"status":            int64(r.status),
			"cached":            boolInt(r.resp.Cached),
			"sent_after_due_us": r.sent.Sub(r.due).Microseconds(),
			"server_elapsed_us": int64(r.resp.ElapsedMillis * 1e3),
		})
	}
	rec.close(wlSpan, nil)
	rec.close(runSpan, nil)
	if err := rec.write(cfg.traceDir, cfg.workload, cfg.seed); err != nil {
		return nil, t, err
	}
	return vals, t, nil
}

// phaseVals derives the deframe and sparsify metrics of the serve workload
// from the server's aggregated engine phases. The server aggregates per
// phase without timestamps, so times here are sums of phase durations,
// not wall-time unions; all are per cold deterministic solve.
func phaseVals(vals map[string]float64, phases []parcolor.TracePhaseSummary, solves int) {
	if solves == 0 {
		return
	}
	k := float64(solves)
	var steps, evals, parts, deferred, work float64
	var stepTime time.Duration
	for _, p := range phases {
		name := p.Engine + "/" + p.Phase
		secs := p.Elapsed.Seconds()
		switch {
		case isStep(name):
			steps += float64(p.Count)
			stepTime += p.Elapsed
			evals += float64(p.SeedEvals)
			parts += float64(p.Participants)
			deferred += float64(p.Deferred)
			// Per-step products are not kept by the aggregate; the mean
			// evals per step times the participants is the closest proxy.
			work += ratio(float64(p.SeedEvals), float64(p.Count)) * float64(p.Participants)
			if name == "deframe/dense/synch" {
				vals["deframe.synch_s"] += secs / k
			}
		case name == "deframe/greedy-residue":
			vals["deframe.residue_s"] += secs / k
			vals["deframe.residue_nodes"] += float64(p.Participants) / k
		case name == "sparsify/partition":
			vals["sparsify.partition_s"] += secs / k
			vals["sparsify.partitions"] += float64(p.Count) / k
			vals["sparsify.seed_evals"] += float64(p.SeedEvals) / k
		case name == "sparsify/bin":
			vals["sparsify.bin_s"] += secs / k
		}
	}
	vals["deframe.steps"] = ratio(steps, k)
	vals["deframe.step_s"] = ratio(stepTime.Seconds(), k)
	vals["deframe.seed_evals"] = ratio(evals, k)
	vals["deframe.participants"] = ratio(parts, k)
	vals["deframe.deferred"] = ratio(deferred, k)
	vals["deframe.deferral_frac"] = ratio(deferred, parts)
	vals["deframe.ns_per_seed_participant"] = ratio(stepTime.Seconds()*1e9, work)
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
