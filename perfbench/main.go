// Command perfbench is the repository's host-performance benchmark. It
// drives the simulator from outside through its public entry points —
// engine.RunPointObserved with its attach hook for single design points,
// and an in-process sweepd.Coordinator/sweepd.Worker pair over a
// loopback listener with a resultstore archive for sweeps — and reports
// host throughput, set-up time and memory as end-to-end metrics, or (with
// --trace 1) the per-layer work behind them.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper16 --seed 1 --seconds 40 --trace 0
//
// run.sh builds this package and runs it. Every workload is a closed
// loop: one client submits a point (or a sweep) and waits for it. The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the lines before it are a readable
// summary (host, sim_digest, error_rate, sample counts). See DESIGN.md
// for the workloads, the metric definitions and how they interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one reported metric, its unit and which direction is
// better. The tables below are the single source of the metrics
// BENCHMARK.json lists; the self-test checks the two agree.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"sim_ops_per_s", "ops/s", "higher"},
	{"points_per_s", "points/s", "higher"},
	{"first_row_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"max_rss_mb", "MB", "lower"},
}

// cpuModules are the layers whose share of CPU-profile leaf samples the
// traced run reports as cpu.<module>; everything else is cpu.other.
var cpuModules = []string{
	"sim", "interconnect", "machine", "cache", "core", "directory", "hammer",
	"snooping", "workload", "msg", "topology", "stats", "trace", "engine",
	"resultstore", "sweepd", "runtime",
}

// sweepEndpoints are the coordinator endpoints the sweep workload's
// worker calls.
var sweepEndpoints = []string{"plan", "lease", "heartbeat", "result"}

// perLayer lists the traced run's metrics. For the simulated counts and
// the model.* figures, which a simulator-only change must leave
// identical, "better" is nominal.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"engine.setup_ms", "ms", "lower"},
		{"engine.simulate_s", "s", "lower"},
		{"engine.plan_jobs_ms", "ms", "lower"},
		{"engine.pointkey_us", "us", "lower"},
		{"sim.events_executed", "count", "lower"},
		{"sim.events_scheduled", "count", "lower"},
		{"sim.events_per_op", "events/op", "lower"},
		{"sim.ns_per_event", "ns", "lower"},
		{"cluster.cut_links", "count", "lower"},
		{"cluster.cpu_util", "fraction", "higher"},
		{"host.steal_frac", "fraction", "lower"},
		{"host.wall_sim_ops_per_s", "ops/s", "higher"},
		{"interconnect.msgs", "count", "lower"},
		{"interconnect.bytes_total", "bytes", "lower"},
		{"interconnect.msgs_per_miss", "msgs/miss", "lower"},
		{"machine.accesses", "count", "higher"},
		{"machine.l2_hits", "count", "higher"},
		{"machine.misses", "count", "lower"},
		{"machine.writebacks", "count", "lower"},
		{"machine.miss_latency_p99_ns", "ns", "lower"},
		{"core.reissues", "count", "lower"},
		{"core.persistent_activations", "count", "lower"},
		{"core.token_transfers", "count", "lower"},
		{"directory.home_requests", "count", "lower"},
		{"dir2.authority_recalls", "count", "lower"},
		{"hammer.home_requests", "count", "lower"},
		{"snooping.broadcasts", "count", "lower"},
		{"runtime.alloc_bytes_per_op", "bytes/op", "lower"},
		{"runtime.mallocs_per_op", "allocs/op", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
		{"runtime.gc_cpu_frac", "fraction", "lower"},
		{"sweepd.lease_ms_p50", "ms", "lower"},
		{"sweepd.result_ms_p50", "ms", "lower"},
	}
	for _, ep := range sweepEndpoints {
		defs = append(defs, metricDef{"sweepd.handler_ms." + ep, "ms", "lower"})
	}
	for _, ep := range sweepEndpoints {
		defs = append(defs, metricDef{"sweepd.requests." + ep, "count", "lower"})
	}
	defs = append(defs,
		metricDef{"sweepd.slot_busy_frac", "fraction", "higher"},
		metricDef{"resultstore.bytes_written", "bytes", "lower"},
		metricDef{"resultstore.entries", "count", "higher"},
		metricDef{"resultstore.encode_us", "us", "lower"},
		metricDef{"resultstore.decode_us", "us", "lower"},
		metricDef{"resultstore.resume_ms", "ms", "lower"},
		metricDef{"resultstore.hits", "count", "higher"},
		metricDef{"trace.spans", "count", "lower"},
		metricDef{"trace.overhead_pct", "%", "lower"},
	)
	for _, m := range cpuModules {
		defs = append(defs, metricDef{"cpu." + m, "fraction", "lower"})
	}
	defs = append(defs, metricDef{"cpu.other", "fraction", "lower"})
	return append(defs, modelMetrics...)
}

// options is one invocation. The unexported test knobs shrink the
// workloads and inject faults; the command line never sets them.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string

	tiny  bool   // self-test sizes
	fault string // "", faultCorruptStore or faultBadPoint
}

const (
	// faultCorruptStore rewrites one archived envelope between the
	// sweep's compute and resume passes; the resume check must fire.
	faultCorruptStore = "corrupt-store"
	// faultBadPoint appends a point naming an unregistered topology to
	// each round of a point workload; it must count as failed.
	faultBadPoint = "bad-point"
)

// outcome is what a workload run produced: the correctness tally, the
// metric values by name, and summary lines for the human reader.
type outcome struct {
	attempted, failed int
	digest            string
	values            map[string]float64
	notes             []string
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

var workloadNames = []string{"paper16", "scale64", "sweep"}

func runWorkload(opts options) (*outcome, error) {
	switch opts.workload {
	case "paper16":
		return runPoints(opts, paper16Plan(opts))
	case "scale64":
		return runPoints(opts, scale64Plan(opts))
	case "sweep":
		return runSweep(opts)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", opts.workload, strings.Join(workloadNames, ", "))
}

// report prints the summary lines and then the result line. End-to-end
// metrics must all be present; a per-layer metric a workload bypasses is
// reported as 0.
func report(w io.Writer, opts options, o *outcome) error {
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	res := resultLine{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok && !opts.trace {
			return fmt.Errorf("workload %s did not measure %s", opts.workload, d.name)
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}

	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", opts.workload, opts.seed, opts.seconds, opts.trace)
	fmt.Fprintf(w, "host %s\n", hostLine())
	fmt.Fprintf(w, "sim_digest %s\n", o.digest)
	errRate := 0.0
	if o.attempted > 0 {
		errRate = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "error_rate %g (%d failed / %d attempted points)\n", errRate, o.failed, o.attempted)
	for _, n := range o.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// hostLine describes the machine the run measured on.
func hostLine() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s os=%s/%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opts options
	var traceFlag int
	fs.StringVar(&opts.workload, "workload", "paper16", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&opts.seed, "seed", 1, "workload seed")
	fs.Float64Var(&opts.seconds, "seconds", 40, "measurement budget in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	fs.StringVar(&opts.workdir, "workdir", ".bench_build/work", "directory for the sweep's result stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	opts.trace = traceFlag == 1

	o, err := runWorkload(opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := report(stdout, opts, o); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
