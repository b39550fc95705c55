package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"tokencoherence/internal/engine"
	"tokencoherence/internal/resultstore"
	"tokencoherence/internal/sweepd"
	"tokencoherence/internal/sweeps"
)

// sweepSlots is the worker's Parallel setting: points it simulates at
// once.
const sweepSlots = 2

// sweepTimeout bounds one sweep pass, so a wedged coordinator or worker
// fails the run instead of hanging it.
const sweepTimeout = 60 * time.Second

// sweepSpec is the sweep workload's plan: the bandwidth sweep kind
// (TokenB, Directory and Hammer on the torus at six link bandwidths)
// over oltp.
func sweepSpec(opts options) sweepd.PlanSpec {
	spec := sweepd.PlanSpec{Kind: "bandwidth", Workload: "oltp", Seed: opts.seed, Ops: 300, Warmup: 900}
	if opts.tiny {
		spec.Ops, spec.Warmup = 10, 30
	}
	return spec
}

// resolveSpec rebuilds the plan a PlanSpec names, as the sweep command's
// coordinator and workers do.
func resolveSpec(spec sweepd.PlanSpec) (engine.Plan, error) {
	plan, _, err := sweeps.ByKind(spec.Kind, spec.Workload, spec.Seed)
	if err != nil {
		return engine.Plan{}, err
	}
	plan.Ops, plan.Warmup, plan.Islands = spec.Ops, spec.Warmup, spec.Islands
	return plan, nil
}

// firstRowSink stamps the coordinator's first emitted row, in wall time
// and in process CPU time since the sweep started.
type firstRowSink struct {
	start    time.Time
	cpuStart time.Duration
	at, cpu  time.Duration
}

func (s *firstRowSink) Begin(int) error { return nil }

func (s *firstRowSink) Emit(engine.Result) error {
	if s.at == 0 {
		s.at, s.cpu = time.Since(s.start), processCPU()-s.cpuStart
	}
	return nil
}

// clientProbe is the worker's HTTP transport. It always notes when the
// first /lease request leaves (the end of the sweep's set-up); when
// detailed, it also times every round trip and accounts slot busy time
// from each lease's grant to its result's delivery.
type clientProbe struct {
	base     http.RoundTripper
	start    time.Time
	cpuStart time.Duration
	detailed bool

	firstLease        sync.Once
	leaseAt, leaseCPU time.Duration // wall and process CPU since start

	mu       sync.Mutex
	leaseRT  []float64 // ms
	resultRT []float64 // ms
	grantAt  map[string]time.Time
	busy     time.Duration
}

func (p *clientProbe) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	path := req.URL.Path
	if path == "/lease" {
		p.firstLease.Do(func() { p.leaseAt, p.leaseCPU = t0.Sub(p.start), processCPU()-p.cpuStart })
	}
	if !p.detailed {
		return p.base.RoundTrip(req)
	}

	var lease string
	if path == "/result" && req.Body != nil {
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		var rr struct {
			Lease string `json:"lease"`
		}
		if err := json.Unmarshal(body, &rr); err != nil {
			return nil, fmt.Errorf("perfbench: decode result request: %w", err)
		}
		lease = rr.Lease
		req = req.Clone(req.Context())
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	resp, err := p.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	var granted []string
	if path == "/lease" && resp.StatusCode == http.StatusOK {
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		var lr sweepd.LeaseResponse
		if err := json.Unmarshal(body, &lr); err != nil {
			return nil, fmt.Errorf("perfbench: decode lease response: %w", err)
		}
		for _, a := range lr.Assignments {
			granted = append(granted, a.Lease)
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	t1 := time.Now()
	ms := float64(t1.Sub(t0)) / 1e6
	p.mu.Lock()
	defer p.mu.Unlock()
	switch path {
	case "/lease":
		p.leaseRT = append(p.leaseRT, ms)
		for _, id := range granted {
			p.grantAt[id] = t1
		}
	case "/result":
		p.resultRT = append(p.resultRT, ms)
		if at, ok := p.grantAt[lease]; ok {
			p.busy += t1.Sub(at)
			delete(p.grantAt, lease)
		}
	}
	return resp, nil
}

// serverProbe times the coordinator's handlers per endpoint.
type serverProbe struct {
	mu    sync.Mutex
	times map[string][]float64 // endpoint -> handler ms
}

func (p *serverProbe) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		ms := float64(time.Since(t0)) / 1e6
		ep := strings.TrimPrefix(r.URL.Path, "/")
		p.mu.Lock()
		p.times[ep] = append(p.times[ep], ms)
		p.mu.Unlock()
	})
}

// sweepPass is one sweep: a compute pass through a fresh coordinator,
// worker and store, then a resume pass replaying the plan from the
// store.
type sweepPass struct {
	instrumented bool

	setup, firstRow, compute          time.Duration // wall
	setupCPU, firstRowCPU, computeCPU time.Duration // process CPU
	host                              hostDelta
	rows, resumeRows                  []byte
	results                           []engine.Result
	failed                            int
	ops                               float64
	peakMB                            float64 // peak resident set during the sweep
	notes                             []string

	client       *clientProbe
	server       *serverProbe
	resumeInit   time.Duration
	bytesWritten uint64
	entries      int
	hits         uint64
	calls        engineCallTimes
	encodeUs     []float64
	decodeUs     []float64
}

// runSweepPass serves one sweep through an in-process coordinator on a
// loopback listener to one worker, then replays it from the store.
func runSweepPass(opts options, spec sweepd.PlanSpec, storeDir string, instrumented bool) (*sweepPass, error) {
	sp := &sweepPass{instrumented: instrumented}
	if instrumented {
		plan, err := resolveSpec(spec)
		if err != nil {
			return nil, err
		}
		if err := sp.calls.measure(plan); err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), sweepTimeout)
	defer cancel()

	h0 := readHost()
	t0 := h0.wall
	store, err := resultstore.Open(storeDir)
	if err != nil {
		return nil, err
	}
	store.SetVersion(engine.CodeVersion)
	plan, err := resolveSpec(spec)
	if err != nil {
		return nil, err
	}
	var rows bytes.Buffer
	first := &firstRowSink{start: t0, cpuStart: h0.cpu}
	coord := &sweepd.Coordinator{Plan: plan, Spec: spec, Store: store}
	if err := coord.Init(&engine.JSONLSink{W: &rows}, first); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	handler := coord.Handler()
	if instrumented {
		sp.server = &serverProbe{times: map[string][]float64{}}
		handler = sp.server.wrap(handler)
	}
	srv := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	conns := runtime.NumCPU()
	transport := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	sp.client = &clientProbe{base: transport, start: t0, cpuStart: h0.cpu, detailed: instrumented, grantAt: map[string]time.Time{}}
	worker := &sweepd.Worker{
		ID:       "perfbench",
		BaseURL:  "http://" + ln.Addr().String(),
		Resolve:  resolveSpec,
		Parallel: sweepSlots,
		Client:   &http.Client{Transport: sp.client},
	}
	waitCtx, stopWait := context.WithCancel(ctx)
	defer stopWait()
	workerCtx, stopWorker := context.WithCancel(ctx)
	defer stopWorker()
	workerDone := make(chan error, 1)
	go func() {
		err := worker.Run(workerCtx)
		if err != nil {
			stopWait() // a failed worker leaves the coordinator nobody to wait for
		}
		workerDone <- err
	}()

	waitErr := coord.Wait(waitCtx)
	h1 := readHost()
	sp.compute = h1.wall.Sub(t0)
	sp.computeCPU = h1.cpu - h0.cpu
	sp.firstRow, sp.firstRowCPU = first.at, first.cpu
	stopWorker()
	workerErr := <-workerDone
	sp.setup, sp.setupCPU = sp.client.leaseAt, sp.client.leaseCPU
	shutdownCtx, stopShutdown := context.WithTimeout(context.Background(), 5*time.Second)
	if err := srv.Shutdown(shutdownCtx); err != nil {
		srv.Close()
	}
	stopShutdown()
	<-served
	transport.CloseIdleConnections()

	sp.results = coord.Results()
	sp.rows = rows.Bytes()
	for _, r := range sp.results {
		switch {
		case r.Err != nil:
			sp.failed++
			sp.notes = append(sp.notes, fmt.Sprintf("FAILED sweep point %d: %v", r.Index, r.Err))
		case r.Run == nil:
			sp.failed++
			sp.notes = append(sp.notes, fmt.Sprintf("FAILED sweep point %d: never completed (%v)", r.Index, waitErr))
		default:
			sp.ops += float64(r.Point.Procs * (r.Point.Ops + r.Point.Warmup))
		}
	}
	if workerErr != nil && !errors.Is(workerErr, context.Canceled) {
		sp.notes = append(sp.notes, fmt.Sprintf("FAILED worker: %v", workerErr))
		sp.failed = max(sp.failed, 1)
	}
	sp.bytesWritten = store.Bytes()
	if sp.entries, err = store.Len(); err != nil {
		return nil, err
	}

	if opts.fault == faultCorruptStore {
		if err := corruptOneEntry(storeDir); err != nil {
			return nil, err
		}
	}
	if err := sp.resume(ctx, plan, spec, storeDir); err != nil {
		return nil, err
	}
	sp.host.add(h0, readHost())
	if instrumented {
		if err := sp.timeCodec(); err != nil {
			return nil, err
		}
	}
	return sp, nil
}

// resume replays the plan in Reuse mode from a fresh handle on the full
// store, as a restarted `sweep serve -resume` would, and checks that
// every replayed row equals the computed one.
func (sp *sweepPass) resume(ctx context.Context, plan engine.Plan, spec sweepd.PlanSpec, storeDir string) error {
	store, err := resultstore.Open(storeDir)
	if err != nil {
		return err
	}
	var rows bytes.Buffer
	coord := &sweepd.Coordinator{Plan: plan, Spec: spec, Store: store, Reuse: true}
	t0 := time.Now()
	initErr := coord.Init(&engine.JSONLSink{W: &rows})
	sp.resumeInit = time.Since(t0)
	if initErr == nil {
		// Every point was recalled at Init, so Wait has nothing to wait
		// for; the timeout only bounds a store that lost an entry.
		wctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		initErr = coord.Wait(wctx)
		cancel()
	}
	sp.hits = store.Hits()
	sp.resumeRows = rows.Bytes()
	if initErr != nil {
		sp.notes = append(sp.notes, fmt.Sprintf("FAILED resume pass: %v", initErr))
	}
	if n := diffLines(sp.rows, sp.resumeRows); n > 0 {
		sp.failed += n
		sp.notes = append(sp.notes, fmt.Sprintf("FAILED resume pass: %d rows differ from the compute pass", n))
	} else if initErr != nil {
		sp.failed++
	}
	return nil
}

// timeCodec times the store's envelope codec on every computed result.
func (sp *sweepPass) timeCodec() error {
	for _, r := range sp.results {
		if r.Run == nil {
			continue
		}
		key, err := engine.PointKey(r.Point)
		if err != nil {
			return err
		}
		t0 := time.Now()
		raw, err := resultstore.Encode(key, engine.CodeVersion, r.Run, r.Metrics)
		sp.encodeUs = append(sp.encodeUs, float64(time.Since(t0))/1e3)
		if err != nil {
			return err
		}
		t0 = time.Now()
		_, _, _, _, err = resultstore.Decode(raw)
		sp.decodeUs = append(sp.decodeUs, float64(time.Since(t0))/1e3)
		if err != nil {
			return err
		}
	}
	return nil
}

// diffLines counts the lines of want that got does not reproduce at the
// same position, plus any extra lines in got.
func diffLines(want, got []byte) int {
	w := bytes.SplitAfter(want, []byte("\n"))
	g := bytes.SplitAfter(got, []byte("\n"))
	n := 0
	for i := range max(len(w), len(g)) {
		if i >= len(w) || i >= len(g) || !bytes.Equal(w[i], g[i]) {
			n++
		}
	}
	return n
}

// corruptOneEntry rewrites the first archived envelope as a valid entry
// whose run completed one more transaction than it did.
func corruptOneEntry(storeDir string) error {
	var target string
	err := filepath.WalkDir(filepath.Join(storeDir, "objects"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && target == "" && !d.IsDir() && filepath.Ext(path) == ".json" {
			target = path
		}
		return err
	})
	if err != nil {
		return err
	}
	if target == "" {
		return errors.New("perfbench: store holds no entry to corrupt")
	}
	raw, err := os.ReadFile(target)
	if err != nil {
		return err
	}
	key, version, run, snap, err := resultstore.Decode(raw)
	if err != nil {
		return err
	}
	run.Transactions++
	raw, err = resultstore.Encode(key, version, run, snap)
	if err != nil {
		return err
	}
	return os.WriteFile(target, raw, 0o644)
}

// runSweep runs the sweep workload: sweep passes until the time budget
// is spent. With opts.trace, every second pass is instrumented (round
// trip, handler and codec timings) and a CPU profile covers the timed
// phase.
func runSweep(opts options) (*outcome, error) {
	spec := sweepSpec(opts)
	if err := os.MkdirAll(opts.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opts.workdir, "sweep-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	minPasses := 3
	if opts.trace {
		minPasses = 4
	}
	var prof bytes.Buffer
	if opts.trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	var passes []*sweepPass
	rss := startRSSSampler(rssInterval)
	start := time.Now()
	for keepGoing(start, len(passes), minPasses, opts.seconds) {
		instrumented := opts.trace && len(passes)%2 == 1
		storeDir := filepath.Join(dir, fmt.Sprintf("store-%d", len(passes)))
		rss.takePeak()
		sp, err := runSweepPass(opts, spec, storeDir, instrumented)
		if err != nil {
			if opts.trace {
				pprof.StopCPUProfile()
			}
			rss.close()
			return nil, err
		}
		sp.peakMB = rss.takePeak()
		if err := os.RemoveAll(storeDir); err != nil {
			return nil, err
		}
		passes = append(passes, sp)
	}
	rss.close()
	if opts.trace {
		pprof.StopCPUProfile()
	}

	o := &outcome{values: map[string]float64{}}
	ref := passes[0].rows
	o.digest = fmt.Sprintf("%x", sha256.Sum256(ref))
	for i, sp := range passes {
		o.attempted += 2 * len(sp.results) // compute pass and resume pass
		o.failed += sp.failed
		if n := diffLines(ref, sp.rows); n > 0 && i > 0 {
			o.failed += n
			sp.notes = append(sp.notes, fmt.Sprintf("FAILED sweep %d: %d rows differ from the first sweep", i, n))
		}
		for _, n := range sp.notes {
			if len(o.notes) < 5 {
				o.notes = append(o.notes, n)
			}
		}
	}

	// End-to-end metrics: medians over the uninstrumented sweeps of
	// host CPU time.
	var pps, ops, wallOps, firstRow, setup, computeCPU, computeWall, instrCPU, instrWall, cpuUtil, peaks []float64
	var host hostDelta
	var opsTotal float64
	plain := 0
	for _, sp := range passes {
		secs, wall := sp.computeCPU.Seconds(), sp.compute.Seconds()
		if sp.instrumented {
			instrCPU = append(instrCPU, secs)
			instrWall = append(instrWall, wall)
			continue
		}
		plain++
		computeCPU = append(computeCPU, secs)
		computeWall = append(computeWall, wall)
		pps = append(pps, float64(len(sp.results))/secs)
		ops = append(ops, sp.ops/secs)
		wallOps = append(wallOps, sp.ops/wall)
		firstRow = append(firstRow, sp.firstRowCPU.Seconds())
		setup = append(setup, sp.setupCPU.Seconds())
		peaks = append(peaks, sp.peakMB)
		cpuUtil = append(cpuUtil, secs/(wall*sweepSlots))
		host.merge(sp.host)
		opsTotal += sp.ops
	}
	v := o.values
	v["points_per_s"] = median(pps)
	v["sim_ops_per_s"] = median(ops)
	v["first_row_s"] = median(firstRow)
	v["setup_s"] = median(setup)
	v["max_rss_mb"] = median(peaks)
	o.note("sweeps %d (%d uninstrumented) of %d points, %.0f simulated ops each; timings are medians over the uninstrumented sweeps",
		len(passes), plain, len(passes[0].results), passes[0].ops)
	o.note("median compute pass: %.4fs CPU, %.4fs wall = %.0f ops per wall second; hypervisor steal %.1f%% of CPU time",
		median(computeCPU), median(computeWall), median(wallOps), 100*host.stealFrac())
	var walls, rows []string
	for _, sp := range passes {
		walls = append(walls, fmtDur(sp.compute))
		rows = append(rows, fmtDur(sp.firstRow))
	}
	o.note("compute pass wall times: %s", strings.Join(walls, " "))
	o.note("first row wall times: %s", strings.Join(rows, " "))
	o.note("peak resident set: median sweep %.1f MB, process lifetime %.1f MB", median(peaks), peakRSSMB())
	if !opts.trace {
		return o, nil
	}

	var snaps []map[string]float64
	for _, r := range passes[0].results {
		if r.Metrics != nil {
			snaps = append(snaps, r.Metrics.FiniteMap())
		}
	}
	countValues(snaps, passes[0].ops, v)
	host.runtimeValues(opsTotal, plain, v)
	v["cluster.cpu_util"] = median(cpuUtil)
	v["host.steal_frac"] = host.stealFrac()
	v["host.wall_sim_ops_per_s"] = median(wallOps)

	var planMs, keyUs, leaseMs, resultMs, busy, written, entries, encUs, decUs, resumeMs, hits []float64
	handler := map[string][]float64{}
	requests := map[string]float64{}
	instrumented := 0
	for _, sp := range passes {
		resumeMs = append(resumeMs, float64(sp.resumeInit)/1e6)
		hits = append(hits, float64(sp.hits))
		written = append(written, float64(sp.bytesWritten))
		entries = append(entries, float64(sp.entries))
		if !sp.instrumented {
			continue
		}
		instrumented++
		planMs = append(planMs, sp.calls.planJobsMs...)
		keyUs = append(keyUs, sp.calls.pointKeyUs...)
		leaseMs = append(leaseMs, sp.client.leaseRT...)
		resultMs = append(resultMs, sp.client.resultRT...)
		busy = append(busy, sp.client.busy.Seconds())
		encUs = append(encUs, sp.encodeUs...)
		decUs = append(decUs, sp.decodeUs...)
		for ep, ts := range sp.server.times {
			handler[ep] = append(handler[ep], ts...)
			requests[ep] += float64(len(ts))
		}
	}
	v["engine.plan_jobs_ms"] = median(planMs)
	v["engine.pointkey_us"] = median(keyUs)
	if ev := v["sim.events_executed"]; ev > 0 {
		v["sim.ns_per_event"] = median(busy) * 1e9 / ev
	}
	v["sweepd.lease_ms_p50"] = median(leaseMs)
	v["sweepd.result_ms_p50"] = median(resultMs)
	for _, ep := range sweepEndpoints {
		v["sweepd.handler_ms."+ep] = median(handler[ep])
		v["sweepd.requests."+ep] = requests[ep] / float64(instrumented)
	}
	if len(instrWall) > 0 {
		v["sweepd.slot_busy_frac"] = median(busy) / (median(instrWall) * sweepSlots)
		v["trace.overhead_pct"] = 100 * (median(instrCPU)/median(computeCPU) - 1)
	}
	v["resultstore.bytes_written"] = median(written)
	v["resultstore.entries"] = median(entries)
	v["resultstore.encode_us"] = median(encUs)
	v["resultstore.decode_us"] = median(decUs)
	v["resultstore.resume_ms"] = median(resumeMs)
	v["resultstore.hits"] = median(hits)
	return o, cpuValues(o, prof.Bytes())
}
