package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/pprof"
	"strings"
	"time"

	"tokencoherence/internal/engine"
	"tokencoherence/internal/machine"
	"tokencoherence/internal/trace"
)

// paperProtocols are the eight protocols paper16 runs, named explicitly
// so that a protocol registered later does not change the workload.
var paperProtocols = []string{
	"tokenb", "snooping", "directory", "hammer", "tokend", "tokenm", "dir2", "regionfilter",
}

// paper16Plan is the paper's 16-processor target system: every protocol
// on its default fabric over oltp and apache, serial kernel.
func paper16Plan(opts options) engine.Plan {
	ops, warmup := 300, 900
	if opts.tiny {
		ops, warmup = 20, 60
	}
	var variants []engine.Variant
	for _, p := range paperProtocols {
		variants = append(variants, engine.Variant{Name: p, Point: engine.Point{Protocol: p}})
	}
	return engine.Plan{
		Variants:  variants,
		Workloads: []string{"oltp", "apache"},
		Seeds:     []uint64{opts.seed},
		Procs:     16,
		Ops:       ops,
		Warmup:    warmup,
	}
}

// scale64Plan is the 64-processor torus on two kernel islands, for the
// protocols whose broadcasts and scopes grow with the machine.
func scale64Plan(opts options) engine.Plan {
	ops, warmup := 50, 150
	if opts.tiny {
		ops, warmup = 5, 10
	}
	return engine.Plan{
		Variants:  engine.Grid([]string{"tokenb", "regionfilter", "dir2"}, []string{"torus"}),
		Workloads: []string{"oltp"},
		Seeds:     []uint64{opts.seed},
		Procs:     64,
		Islands:   2,
		Ops:       ops,
		Warmup:    warmup,
	}
}

// pointRun is one call of engine.RunPointObserved.
type pointRun struct {
	setup, simulate       time.Duration // wall: call -> attach -> return
	setupCPU, simulateCPU time.Duration // process CPU over the same spans
	cutLinks              int
	spans                 int
	row                   []byte // canonical JSONL row
	snap                  map[string]float64
	err                   error
}

func (r pointRun) wall() time.Duration { return r.setup + r.simulate }
func (r pointRun) cpu() time.Duration  { return r.setupCPU + r.simulateCPU }

// pointRound is one closed-loop pass over the workload's points.
type pointRound struct {
	traced bool
	runs   []pointRun
	host   hostDelta
	peakMB float64 // peak resident set during the round
}

// runOne submits one point and waits for it. The attach hook stamps the
// end of set-up and, in traced rounds, attaches a transaction tracer.
func runOne(job engine.Job, traced bool) (pr pointRun) {
	var attached time.Time
	var cpuAtAttach time.Duration
	var tracer *trace.Tracer
	start, cpuStart := time.Now(), processCPU()
	defer func() {
		if r := recover(); r != nil {
			pr.err = fmt.Errorf("point %s/%s panicked: %v", job.Variant, job.Point.Workload, r)
		}
	}()
	run, snap, err := engine.RunPointObserved(job.Point, func(sys *machine.System) {
		attached = time.Now()
		cpuAtAttach = processCPU()
		pr.cutLinks = sys.CutLinks
		if traced {
			tracer = trace.NewTracer(trace.TracerConfig{})
			sys.Observe(tracer.Observer())
		}
	})
	end, cpuEnd := time.Now(), processCPU()
	if attached.IsZero() {
		pr.setup, pr.setupCPU = end.Sub(start), cpuEnd-cpuStart
	} else {
		pr.setup, pr.simulate = attached.Sub(start), end.Sub(attached)
		pr.setupCPU, pr.simulateCPU = cpuAtAttach-cpuStart, cpuEnd-cpuAtAttach
	}
	if err != nil {
		pr.err = err
		return pr
	}
	var buf bytes.Buffer
	if err := (&engine.JSONLSink{W: &buf}).Emit(engine.Result{Job: job, Run: run, Metrics: snap}); err != nil {
		pr.err = fmt.Errorf("encode row: %w", err)
		return pr
	}
	pr.row, pr.snap = buf.Bytes(), snap.FiniteMap()
	if tracer != nil {
		pr.spans = tracer.Spans()
	}
	return pr
}

// runRound runs every point once, starting at point first and wrapping
// around: rotating the start from round to round moves each point
// against the garbage collector's cycle, so per-point medians do not
// inherit one fixed alignment of collections with set-ups.
func runRound(jobs []engine.Job, first int, traced bool, rss *rssSampler) pointRound {
	r := pointRound{traced: traced, runs: make([]pointRun, len(jobs))}
	rss.takePeak()
	h0 := readHost()
	for k := range jobs {
		i := (first + k) % len(jobs)
		r.runs[i] = runOne(jobs[i], traced)
	}
	r.peakMB = rss.takePeak()
	r.host.add(h0, readHost())
	return r
}

// roundTimes lists each round's wall time, traced rounds marked.
func roundTimes(rounds []pointRound) string {
	var b strings.Builder
	for i, r := range rounds {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(fmtDur(r.host.wall))
		if r.traced {
			b.WriteByte('*')
		}
	}
	return b.String()
}

// engineCallTimes times the engine's plan expansion and point hashing,
// the per-plan work a sweep pays before its first point.
type engineCallTimes struct {
	planJobsMs []float64
	pointKeyUs []float64
}

func (t *engineCallTimes) measure(plan engine.Plan) error {
	t0 := time.Now()
	jobs, err := plan.Jobs()
	t.planJobsMs = append(t.planJobsMs, float64(time.Since(t0))/1e6)
	if err != nil {
		return err
	}
	for _, j := range jobs {
		t0 := time.Now()
		if _, err := engine.PointKey(j.Point); err != nil {
			return err
		}
		t.pointKeyUs = append(t.pointKeyUs, float64(time.Since(t0))/1e3)
	}
	return nil
}

// keepGoing reports whether another round fits the time budget: always
// until minRounds are done, then while the elapsed time plus a mean
// round stays within the budget.
func keepGoing(start time.Time, rounds, minRounds int, seconds float64) bool {
	if rounds < minRounds {
		return true
	}
	elapsed := time.Since(start)
	return (elapsed + elapsed/time.Duration(rounds)).Seconds() <= seconds
}

// runPoints runs a point workload: closed-loop rounds over the plan's
// points until the time budget is spent. Untraced rounds give the
// end-to-end metrics; with opts.trace, every second round attaches a
// transaction tracer and a CPU profile covers the timed phase.
func runPoints(opts options, plan engine.Plan) (*outcome, error) {
	jobs, err := plan.Jobs()
	if err != nil {
		return nil, err
	}
	if opts.fault == faultBadPoint {
		bad := jobs[0]
		bad.Index, bad.Point.Topo = len(jobs), "no-such-topology"
		jobs = append(jobs, bad)
	}
	model := opts.workload == "paper16"

	minRounds := 3
	if opts.trace {
		minRounds = 4 // two untraced, two traced
	}
	var calls engineCallTimes
	var prof bytes.Buffer
	if opts.trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	var rounds []pointRound
	rss := startRSSSampler(rssInterval)
	start := time.Now()
	for keepGoing(start, len(rounds), minRounds, opts.seconds) {
		traced := opts.trace && len(rounds)%2 == 1
		if opts.trace {
			if err := calls.measure(plan); err != nil {
				pprof.StopCPUProfile()
				rss.close()
				return nil, err
			}
		}
		rounds = append(rounds, runRound(jobs, len(rounds), traced, rss))
	}
	rss.close()
	if opts.trace {
		pprof.StopCPUProfile()
	}

	o := &outcome{values: map[string]float64{}}
	base := checkPointRounds(o, jobs, rounds)

	// End-to-end metrics: per point, the median over untraced rounds of
	// its host CPU time; a typical round is the sum of its points'
	// medians.
	n := len(jobs)
	setups, totals, sims := make([][]time.Duration, n), make([][]time.Duration, n), make([][]time.Duration, n)
	walls, tracedSims := make([][]time.Duration, n), make([][]time.Duration, n)
	var host hostDelta
	var peaks, latencies []float64 // latencies feed the summary only
	var simCPU, simWallIslands time.Duration
	untraced := 0
	for _, r := range rounds {
		for i, pr := range r.runs {
			if r.traced {
				tracedSims[i] = append(tracedSims[i], pr.simulateCPU)
				continue
			}
			setups[i] = append(setups[i], pr.setupCPU)
			totals[i] = append(totals[i], pr.cpu())
			sims[i] = append(sims[i], pr.simulateCPU)
			walls[i] = append(walls[i], pr.wall())
			latencies = append(latencies, pr.wall().Seconds())
			simCPU += pr.simulateCPU
			simWallIslands += pr.simulate * time.Duration(max(1, jobs[i].Point.Islands))
		}
		if !r.traced {
			host.merge(r.host)
			peaks = append(peaks, r.peakMB)
			untraced++
		}
	}
	var setupSum, roundTime, simTime, tracedSimTime, wallTime time.Duration
	var opsRound float64
	for i, job := range jobs {
		setupSum += medianDur(setups[i])
		wallTime += medianDur(walls[i])
		roundTime += medianDur(totals[i])
		simTime += medianDur(sims[i])
		tracedSimTime += medianDur(tracedSims[i])
		if base[i].err == nil {
			opsRound += float64(job.Point.Procs * (job.Point.Ops + job.Point.Warmup))
		}
	}
	v := o.values
	v["setup_s"] = setupSum.Seconds()
	v["sim_ops_per_s"] = opsRound / roundTime.Seconds()
	v["points_per_s"] = float64(n) / roundTime.Seconds()
	v["first_row_s"] = medianDur(totals[0]).Seconds()
	v["max_rss_mb"] = median(peaks)
	o.note("rounds %d (%d untraced), %d points and %.0f simulated ops per round; timings are per-point medians over the untraced rounds",
		len(rounds), untraced, n, opsRound)
	stealFrac := host.stealFrac()
	wallOps := opsRound / wallTime.Seconds()
	o.note("median round: %s CPU (set-up %s, simulate %s), %s wall = %.0f ops per wall second; hypervisor steal %.1f%% of CPU time",
		fmtDur(roundTime), fmtDur(setupSum), fmtDur(simTime), fmtDur(wallTime), wallOps, 100*stealFrac)
	o.note("round wall times: %s", roundTimes(rounds))
	o.note("%s", distNote("point wall latency (s)", latencies))
	o.note("peak resident set: median round %.1f MB, process lifetime %.1f MB", median(peaks), peakRSSMB())

	var snaps []map[string]float64
	var stats []pointStat
	for i, pr := range base {
		if pr.err == nil {
			snaps = append(snaps, pr.snap)
			stats = append(stats, pointStat{protocol: jobs[i].Point.Protocol, workload: jobs[i].Point.Workload, m: pr.snap})
		}
	}
	if model {
		modelValues(stats, v)
		modelNotes(o)
	}
	if !opts.trace {
		return o, nil
	}

	var allSetups []float64
	cut := 0
	for i := range jobs {
		for _, d := range setups[i] {
			allSetups = append(allSetups, float64(d)/1e6)
		}
		cut = max(cut, base[i].cutLinks)
	}
	countValues(snaps, opsRound, v)
	v["engine.setup_ms"] = median(allSetups)
	v["engine.simulate_s"] = simTime.Seconds()
	v["engine.plan_jobs_ms"] = median(calls.planJobsMs)
	v["engine.pointkey_us"] = median(calls.pointKeyUs)
	if ev := v["sim.events_executed"]; ev > 0 {
		v["sim.ns_per_event"] = float64(simTime) / ev
	}
	v["cluster.cut_links"] = float64(cut)
	v["host.steal_frac"] = stealFrac
	v["host.wall_sim_ops_per_s"] = wallOps
	if simWallIslands > 0 {
		v["cluster.cpu_util"] = float64(simCPU) / float64(simWallIslands)
	}
	host.runtimeValues(opsRound*float64(untraced), untraced, v)
	for _, r := range rounds {
		if r.traced {
			for _, pr := range r.runs {
				v["trace.spans"] += float64(pr.spans)
			}
			break
		}
	}
	if simTime > 0 {
		v["trace.overhead_pct"] = 100 * (float64(tracedSimTime)/float64(simTime) - 1)
	}
	return o, cpuValues(o, prof.Bytes())
}

// checkPointRounds applies the correctness checks to every point of
// every round — the point succeeded, its row matches the first
// successful row for that point (the simulation is deterministic, traced
// or not), and in traced rounds its tracer saw one span per miss — and
// sets the attempted/failed tally and the sim_digest. It returns the
// reference run for each point.
func checkPointRounds(o *outcome, jobs []engine.Job, rounds []pointRound) []pointRun {
	base := make([]pointRun, len(jobs))
	for i := range jobs {
		base[i] = rounds[0].runs[i]
		for _, r := range rounds {
			if r.runs[i].err == nil {
				base[i] = r.runs[i]
				break
			}
		}
	}
	h := sha256.New()
	for _, b := range base {
		h.Write(b.row)
	}
	o.digest = hex.EncodeToString(h.Sum(nil))

	for _, r := range rounds {
		for i, pr := range r.runs {
			o.attempted++
			var problem string
			switch {
			case pr.err != nil:
				problem = pr.err.Error()
			case !bytes.Equal(pr.row, base[i].row):
				problem = "row differs from an earlier round of the same point"
			case r.traced && float64(pr.spans) != pr.snap["misses"]:
				problem = fmt.Sprintf("tracer recorded %d spans for %.0f misses", pr.spans, pr.snap["misses"])
			}
			if problem != "" {
				o.failed++
				if o.failed <= 5 {
					o.note("FAILED %s/%s: %s", jobs[i].Variant, jobs[i].Point.Workload, problem)
				}
			}
		}
	}
	return base
}

// cpuValues fills cpu.<module> from the traced run's CPU profile.
func cpuValues(o *outcome, profile []byte) error {
	shares, samples, err := leafShares(profile)
	if err != nil {
		return err
	}
	for _, m := range cpuModules {
		o.values["cpu."+m] = shares[m]
	}
	o.values["cpu.other"] = shares["other"]
	o.note("cpu profile: %d leaf samples", samples)
	return nil
}
