// Command wirebench is the repository's wire-to-wire benchmark. It
// boots a real 2-member rbrouter mesh on loopback (unmodified
// `rbrouter -mesh topo.json -mesh-id K -cores 1 -config router.click`
// processes), injects stamped IPv4-in-UDP frames at the members' ext
// ports from one UDP socket that also collects what they egress,
// verifies every collected frame, and reads per-layer counters from
// each member's /api/v1/stats.
//
// With -trace 0 it reports the end-to-end metrics of the real program
// running untraced. With -trace 1 it reports per-layer metrics: the
// members' counters, plus spans from a separate composition that hosts
// the same library layers inside this process and times each call into
// them (see compose.go).
//
// Usage, from the repository root (wirebench/run.sh builds both
// binaries first):
//
//	wirebench -root . -workload direct -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. The exit code is non-zero when a
// frame fails verification, conservation does not hold, the open-loop
// generator fell behind its schedule, or a workload did not exercise the
// layers it exists for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Generator self-check bounds: an open-loop phase whose sender ran
// later than this at p99, or reached less than this share of its target
// rate, is rejected rather than recorded.
const (
	maxLateP99Us   = 5000
	minAchievedPct = 97
)

// runEnv locates the benchmark's inputs and outputs.
type runEnv struct {
	out, rbrouter, clickPath string
}

func main() {
	var (
		root     = flag.String("root", ".", "repository root")
		name     = flag.String("workload", "direct", "workload: direct, mesh or fib-churn")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 20, "measured seconds per run")
		traceArg = flag.Int("trace", 0, "0: end-to-end metrics of the real mesh; 1: per-layer metrics")
	)
	flag.Parse()
	// The collector keeps every latency sample; a lazier collector keeps
	// garbage collection out of the measured phases.
	debug.SetGCPercent(400)
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceArg != 0 && *traceArg != 1) {
		fmt.Fprintln(os.Stderr, "wirebench: bad arguments")
		os.Exit(2)
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirebench:", err)
		os.Exit(2)
	}
	env := &runEnv{
		out:       filepath.Join(abs, ".bench_build", "wirebench"),
		rbrouter:  filepath.Join(abs, ".bench_build", "bin", "rbrouter"),
		clickPath: filepath.Join(abs, "wirebench", "router.click"),
	}
	if err := os.MkdirAll(env.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "wirebench:", err)
		os.Exit(2)
	}

	// The run happens on its own goroutine so an interrupt can stop the
	// member processes before the benchmark exits.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	rep := &report{}
	done := make(chan error, 1)
	go func() { done <- run(env, w, *seed, time.Duration(*seconds)*time.Second, *traceArg == 1, rep) }()
	select {
	case err = <-done:
	case <-sigs:
		stopAll()
		os.Exit(130)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirebench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if rep.rejected {
		os.Exit(3)
	}
	if len(rep.fails) > 0 {
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// report collects a run's metrics, failed checks and result counts.
type report struct {
	metrics   []metric
	json      []string // metric names that go into the result line
	fails     []string
	rejected  bool // generator self-check failed: not a result
	attempted uint64
	failed    uint64
	info      []string
}

func (r *report) add(name string, v float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name, v, unit, note})
}

func (r *report) fail(format string, args ...any) {
	r.fails = append(r.fails, fmt.Sprintf(format, args...))
}

func (r *report) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

func (r *report) print(out *os.File) {
	for _, ln := range r.info {
		fmt.Fprintln(out, ln)
	}
	for _, m := range r.metrics {
		line := fmt.Sprintf("%-26s %14.4f %s", m.name, m.value, m.unit)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Fprintln(out, line)
	}
	for _, f := range r.fails {
		fmt.Fprintln(out, "FAIL:", f)
	}
	if r.rejected {
		fmt.Fprintln(out, "REJECTED: the open-loop generator fell behind schedule; no result recorded")
		return
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for _, m := range r.metrics {
		for _, n := range r.json {
			if n == m.name {
				ms[m.name] = val{m.value, m.unit}
			}
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted uint64         `json:"attempted"`
		Failed    uint64         `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{len(r.fails) == 0, r.attempted, r.failed, ms})
	fmt.Fprintln(out, string(line))
}

// endToEnd and perLayer name the metrics of the result line, in the
// order BENCHMARK.json lists them. The p99 latencies are printed by
// every run but travel with the per-layer set: on a small shared host
// their run-to-run spread is wider than any regression bound the
// end-to-end set may carry.
var endToEnd = []string{
	"setup_s", "tput_kpps", "lat_lo_p50_us", "lat_hi_p50_us",
	"delivered_pct", "inorder_pct", "cpu_ns_per_pkt", "rss_mb",
}

var perLayer = []string{
	"lat_lo_p99_us", "lat_hi_p99_us",
	"netio.rx_ns", "netio.tx_ns", "netio.rx_fill", "netio.tx_fill",
	"rss.pushflow_ns",
	"exec.input_wait_us", "exec.txq_wait_us", "exec.ring_rejected",
	"click.CheckIPHeader_ns", "click.LPMLookup_ns", "click.DecIPTTL_ns", "click.empty_poll_pct", "click.pkts_per_poll",
	"lpm.commit_ms_p50", "lpm.commit_ms_p99", "lpm.generations",
	"vlb.route_ns", "vlb.flow_table", "vlb.sticky_pct",
	"pkt.allocs_per_pkt", "pkt.pool_hit_pct",
	"rbrouter.transit_pct", "rbrouter.rx_drops", "rbrouter.tx_stalls",
	"mesh.converge_s", "mesh.srtt_us",
	"loadgen.late_p99_us",
	"trace.e2e_ns", "trace.gap_pct", "trace.overhead_pct",
}

// live tracks the clusters a run has booted so an interrupt can stop
// them.
var live struct {
	sync.Mutex
	m map[*meshCluster]bool
}

func track(c *meshCluster) {
	live.Lock()
	defer live.Unlock()
	if live.m == nil {
		live.m = map[*meshCluster]bool{}
	}
	live.m[c] = true
}

func untrack(c *meshCluster) {
	live.Lock()
	defer live.Unlock()
	delete(live.m, c)
}

func stopAll() {
	live.Lock()
	defer live.Unlock()
	for c := range live.m {
		c.stop()
	}
}

// quantile returns the q-quantile of xs (sorted in place) by nearest
// rank.
func quantile(xs []float32, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return float64(xs[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// fingerprint describes the host a result came from; results compare
// only between matching fingerprints.
func fingerprint(wireMode string) string {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, ln := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(ln, "model name") {
				cpu = strings.TrimSpace(ln[strings.IndexByte(ln, ':')+1:])
				break
			}
		}
	}
	kernel := "unknown"
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(raw))
	}
	fp, _ := json.Marshal(map[string]any{
		"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs_bench": runtime.GOMAXPROCS(0),
		"gomaxprocs_members": memberGOMAXPROCS, "kernel": kernel, "go": runtime.Version(), "wire_mode": wireMode,
	})
	return "fingerprint " + string(fp)
}
