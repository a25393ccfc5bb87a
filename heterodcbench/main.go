// Command heterodcbench is the repository's end-to-end benchmark. It runs
// one workload — fleet, oracle or swim-256 — from a seed, checks the
// workload's outputs, and prints every metric by name and unit, ending with
// one JSON line. From the repository root, run.sh builds and runs it:
//
//	bash heterodcbench/run.sh --workload fleet --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the workloads, the metrics and the
// layer map.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics the last JSON line carries with --trace 0: the
// ones every workload measures. The workload-specific end-to-end metrics
// (simMetrics, guest_mips, fail_frac) are printed in the table above it.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"heap_peak_mb", "MiB", "lower"},
}

// simMetrics are the simulated end-to-end metrics; each workload reports
// its own subset and they must repeat exactly for a seed.
var simMetrics = []metricDef{
	{"sim_sojourn_p50_ms", "ms", "lower"},
	{"sim_sojourn_p90_ms", "ms", "lower"},
	{"sim_energy_j", "J", "lower"},
	{"sim_detect_ms", "ms", "lower"},
	{"sim_false_deaths", "count", "lower"},
	{"sim_msgs_per_node_round", "msgs", "lower"},
}

// selfFracLayers are the layers whose share of sampled CPU time the traced
// run reports as <layer>.self_frac.
var selfFracLayers = []string{
	"machine", "cache", "mem", "isa", "sim", "kernel", "xform", "stackmap", "dsm",
	"msg", "member", "topo", "ckpt", "toolchain", "sched", "fuzz", "go.gc_alloc", "other",
}

// perLayer are the metrics the last JSON line carries with --trace 1.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"machine.instrs", "count", "lower"},
		{"machine.ipc", "instr/cycle", "higher"},
		{"cache.l1i_miss_ratio", "ratio", "lower"},
		{"cache.l1d_miss_ratio", "ratio", "lower"},
		{"kernel.quanta", "count", "lower"},
		{"kernel.step_calls", "count", "lower"},
		{"kernel.step_s", "s", "lower"},
		{"sim.worker_util", "ratio", "higher"},
		{"kernel.migrations", "count", "lower"},
		{"kernel.migration_abort_ratio", "ratio", "lower"},
		{"dsm.pages_in", "count", "lower"},
		{"dsm.pages_out", "count", "lower"},
		{"fuzz.points", "count", "lower"},
		{"fuzz.migrations", "count", "lower"},
		{"fuzz.runs", "count", "lower"},
		{"fuzz.ckpt_images", "count", "lower"},
		{"msg.messages", "count", "lower"},
		{"msg.bytes", "bytes", "lower"},
		{"msg.dropped", "count", "lower"},
		{"msg.retry_ratio", "ratio", "lower"},
		{"member.probes", "count", "lower"},
		{"member.probe_timeouts", "count", "lower"},
		{"member.indirect_probes", "count", "lower"},
		{"member.gossip_updates", "count", "lower"},
		{"member.suspicions", "count", "lower"},
		{"member.false_suspicions", "count", "lower"},
		{"toolchain.build_s", "s", "lower"},
		{"toolchain.builds", "count", "lower"},
		{"sched.completed", "count", "higher"},
		{"sched.migrations", "count", "lower"},
		{"traffic.offered", "count", "higher"},
		{"go.alloc_mb", "MiB", "lower"},
		{"go.gc_cycles", "count", "lower"},
		{"go.gc_cpu_frac", "ratio", "lower"},
		{"go.retained_mb", "MiB", "lower"},
		{"trace_overhead_frac", "ratio", "lower"},
	}
	for _, l := range selfFracLayers {
		defs = append(defs, metricDef{l + ".self_frac", "ratio", "lower"})
	}
	return defs
}()

// workloadInfo records each workload's default seed and a seed held back
// for re-checking a gain claimed on the default one.
var workloadInfo = []struct {
	name                  string
	defaultSeed, heldBack int64
}{
	{"fleet", 1, 1009},
	{"oracle", 1, 1009},
	{"swim-256", 7, 1009},
}

// seedsOf returns a workload's default and held-back seeds.
func seedsOf(name string) (def, heldBack int64) {
	for _, w := range workloadInfo {
		if w.name == name {
			return w.defaultSeed, w.heldBack
		}
	}
	return 0, 0
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "fleet":
		return newFleet(fleetDefault, seed)
	case "oracle":
		return newOracle(seed)
	case "swim-256":
		return newSwim(swimDefault, seed), nil
	}
	names := make([]string, len(workloadInfo))
	for i, w := range workloadInfo {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("heterodcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "fleet", "workload: fleet, oracle or swim-256")
	seed := fs.Int64("seed", 0, "input seed (0: the workload's default seed)")
	seconds := fs.Float64("seconds", 30, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || math.IsInf(*seconds, 0) || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "heterodcbench: want --workload W --seed N --seconds S>0 --trace 0|1")
		return 2
	}
	if *seed == 0 {
		*seed, _ = seedsOf(*name)
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "heterodcbench: %v\n", err)
		return 1
	}
	m, err := measure(w, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "heterodcbench: %s: %v\n", *name, err)
		return 1
	}
	if m.tr != nil {
		if err := m.tr.write(spanFile(*name, *seed)); err != nil {
			fmt.Fprintf(stderr, "heterodcbench: writing spans: %v\n", err)
			return 1
		}
	}
	if err := report(stdout, *name, *seed, m); err != nil {
		fmt.Fprintf(stderr, "heterodcbench: %v\n", err)
		return 1
	}
	return 0
}

// measurement collects every sample of one benchmark invocation.
type measurement struct {
	setups   []float64 // set-up seconds, every set-up made
	buildSec []float64 // toolchain seconds per set-up
	builds   int
	runs     [][]part // untraced runs
	traced   [][]part // traced runs
	goAlloc  []float64
	gcCycles []float64
	gcFrac   []float64
	workers  int

	first     outcome
	attempted int
	failed    int
	problems  []string

	tr         *tracer
	selfFrac   map[string]float64
	sampledNs  int64
	retainedMB float64 // live heap each traced run leaves behind
}

// Set-ups made and timed on their own before the runs: at least
// minSetups, and more until setupShare of the budget is spent, so setup_s is
// a median over many samples even where a set-up takes milliseconds.
const (
	minSetups  = 5
	setupShare = 0.05
)

// measure spends the given seconds on the workload: first the stand-alone
// set-ups, then runs (each with its own set-up) while the next one is
// expected to end within the budget, at least one. When traced, the
// untraced runs get the first half of the budget and the traced runs the
// rest, again at least one each.
func measure(w workload, seconds float64, traced bool) (*measurement, error) {
	m := &measurement{workers: w.workers()}
	start := time.Now()
	deadline := func(share float64) time.Time {
		return start.Add(time.Duration(share * seconds * float64(time.Second)))
	}
	for len(m.setups) < minSetups || time.Now().Before(deadline(setupShare)) {
		if _, err := m.setup(w, nil); err != nil {
			return nil, err
		}
	}
	untracedEnd := deadline(1)
	if traced {
		untracedEnd = deadline(0.5)
	}
	if err := m.repeat(w, nil, untracedEnd); err != nil {
		return nil, err
	}
	if !traced {
		return m, nil
	}

	m.tr = newTracer()
	collectGarbage()
	live0 := liveHeap()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	err := m.repeat(w, m.tr, deadline(1))
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	collectGarbage()
	m.retainedMB = (float64(liveHeap()) - float64(live0)) / (1 << 20) / float64(len(m.traced))
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	m.selfFrac, m.sampledNs = foldSelfTime(samples)
	return m, nil
}

// repeat makes runs until the next one, taking as long as the median run
// so far, would end after the deadline; it always makes one.
func (m *measurement) repeat(w workload, tr *tracer, deadline time.Time) error {
	var took []float64
	for len(took) == 0 || time.Now().Add(time.Duration(median(took)*float64(time.Second))).Before(deadline) {
		t0 := time.Now()
		if err := m.rep(w, tr); err != nil {
			return err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return nil
}

func (m *measurement) setup(w workload, tr *tracer) (instance, error) {
	end := tr.begin("setup", nil)
	t0 := time.Now()
	inst, info, err := w.setup(tr)
	m.setups = append(m.setups, time.Since(t0).Seconds())
	end(map[string]any{"builds": info.builds})
	if err != nil {
		return nil, err
	}
	m.buildSec = append(m.buildSec, info.buildSec)
	m.builds = info.builds
	return inst, nil
}

// rep makes one set-up and one timed run, and checks the run against the
// first run of this seed. Untraced runs release their simulation before the
// next run; traced runs keep theirs, so go.retained_mb shows what a run
// leaves behind when nothing releases it.
func (m *measurement) rep(w workload, tr *tracer) error {
	inst, err := m.setup(w, tr)
	if err != nil {
		return err
	}
	collectGarbage()
	end := tr.begin("run", nil)
	pc := &partClock{heap: startHeapSampler(5 * time.Millisecond)}
	g0 := readGoStats()
	out := inst.run(tr, pc)
	g1 := readGoStats()
	pc.heap.finish()
	if tr == nil {
		inst.release()
	}
	end(nil)

	if m.attempted == 0 {
		m.first = out
	} else if out.digest != m.first.digest {
		out.fail(out.attempted-out.failed, fmt.Sprintf("simulated digest %s differs from the first run's %s",
			shortHash(out.digest), shortHash(m.first.digest)))
	} else if len(pc.parts) != len(m.runs[0]) {
		out.fail(out.attempted-out.failed, fmt.Sprintf("run made %d timed calls, the first made %d",
			len(pc.parts), len(m.runs[0])))
	}
	m.attempted += out.attempted
	m.failed += min(out.failed, out.attempted)
	m.problems = append(m.problems, out.problems...)

	if tr != nil {
		m.traced = append(m.traced, pc.parts)
		return nil
	}
	m.runs = append(m.runs, pc.parts)
	m.goAlloc = append(m.goAlloc, (g1.allocBytes-g0.allocBytes)/(1<<20))
	m.gcCycles = append(m.gcCycles, g1.gcCycles-g0.gcCycles)
	m.gcFrac = append(m.gcFrac, ratio(g1.gcCPU-g0.gcCPU, g1.totalCPU-g0.totalCPU))
	return nil
}

// partMedians takes, for each timed call of a run, the median of one of
// its measures over the runs. Runs repeat the same calls in the same order
// (the digest check makes sure), so a noisy spell on the host that slows
// part of one run does not move the result.
func partMedians(runs [][]part, f func(part) float64) []float64 {
	if len(runs) == 0 {
		return nil
	}
	out := make([]float64, len(runs[0]))
	for i := range out {
		var v []float64
		for _, r := range runs {
			if i < len(r) {
				v = append(v, f(r[i]))
			}
		}
		out[i] = median(v)
	}
	return out
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func mean(v []float64) float64 { return ratio(sum(v), float64(len(v))) }

func wallOf(p part) float64 { return p.wall }

// runWalls is each run's wall time: the sum of its timed calls.
func runWalls(runs [][]part) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		for _, p := range r {
			out[i] += p.wall
		}
	}
	return out
}

func fmtList(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

func shortHash(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))[:12] }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func cpuOf(p part) float64 { return p.cpu }

// endToEndValues computes every end-to-end metric the workload measures.
// wall_s and cpu_s sum the per-call medians, scaled to the workload's
// nominal simulated work; heap_peak_mb averages the per-call median peaks,
// so on oracle it is the heap a typical program's sweep needs rather than
// the largest program the seed happened to draw.
func (m *measurement) endToEndValues() map[string]float64 {
	wall := sum(partMedians(m.runs, wallOf))
	scale := m.first.workScale
	if scale == 0 {
		scale = 1
	}
	v := map[string]float64{
		"wall_s":       wall * scale,
		"cpu_s":        sum(partMedians(m.runs, cpuOf)) * scale,
		"setup_s":      median(m.setups),
		"heap_peak_mb": mean(partMedians(m.runs, func(p part) float64 { return p.heapMB })),
		"fail_frac":    ratio(float64(m.failed), float64(m.attempted)),
	}
	if m.first.instrs > 0 {
		v["guest_mips"] = float64(m.first.instrs) / wall / 1e6
	}
	for k, x := range m.first.sim {
		v[k] = x
	}
	return v
}

// perLayerValues computes every per-layer metric of a traced invocation;
// layers a workload does not exercise read 0.
func (m *measurement) perLayerValues() map[string]float64 {
	wall, cpu := sum(partMedians(m.runs, wallOf)), sum(partMedians(m.runs, cpuOf))
	v := map[string]float64{}
	for _, d := range perLayer {
		v[d.name] = 0
	}
	for k, x := range m.first.layer {
		v[k] = x
	}
	if m.builds > 0 {
		v["toolchain.builds"] = float64(m.builds)
		v["toolchain.build_s"] = median(m.buildSec)
	}
	if m.first.drivesEngine {
		v["kernel.step_s"] = wall
	}
	v["sim.worker_util"] = ratio(cpu, wall*float64(m.workers))
	v["go.alloc_mb"] = median(m.goAlloc)
	v["go.gc_cycles"] = median(m.gcCycles)
	v["go.gc_cpu_frac"] = median(m.gcFrac)
	v["go.retained_mb"] = m.retainedMB
	v["trace_overhead_frac"] = ratio(sum(partMedians(m.traced, wallOf))-wall, wall)
	for _, l := range selfFracLayers {
		v[l+".self_frac"] = m.selfFrac[l]
	}
	return v
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable table, then the JSON result line.
func report(w io.Writer, name string, seed int64, m *measurement) error {
	e2e := m.endToEndValues()
	fmt.Fprintf(w, "workload %s seed %d: %d untraced runs, %d traced, %d set-ups, digest %s\n",
		name, seed, len(m.runs), len(m.traced), len(m.setups), shortHash(m.first.digest))
	def, held := seedsOf(name)
	fmt.Fprintf(w, "  default seed %d, held-back seed %d\n", def, held)
	if q := m.first.layer["kernel.quanta"]; q > 0 {
		fmt.Fprintf(w, "  simulated work per run: %.0f guest instructions, %.0f engine quanta\n",
			m.first.layer["machine.instrs"], q)
	}
	if m.first.workScale != 0 {
		fmt.Fprintf(w, "  wall_s and cpu_s are scaled by %.4f to the workload's nominal simulated work\n", m.first.workScale)
	}
	row := func(d metricDef, note string) {
		if x, ok := e2e[d.name]; ok {
			fmt.Fprintf(w, "  %-24s %14.6g %-6s (%s is better)\n", d.name, x, d.unit, d.better)
		} else {
			fmt.Fprintf(w, "  %-24s %14s %-6s (%s)\n", d.name, "n/a", d.unit, note)
		}
	}
	for _, d := range endToEnd {
		row(d, "")
	}
	row(metricDef{"guest_mips", "MIPS", "higher"}, "no guest instructions counted: none on swim-256, oracle's clusters are internal to fuzz")
	row(metricDef{"fail_frac", "ratio", "lower"}, "")
	for _, d := range simMetrics {
		row(d, "not measured by this workload")
	}
	fmt.Fprintf(w, "  untraced run wall s: %s\n", fmtList(runWalls(m.runs)))
	if len(m.traced) > 0 {
		fmt.Fprintf(w, "  traced run wall s:   %s\n", fmtList(runWalls(m.traced)))
	}
	for _, p := range m.problems {
		fmt.Fprintf(w, "  FAIL: %s\n", p)
	}

	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: m.failed == 0 && len(m.problems) == 0, Attempted: m.attempted, Failed: m.failed,
		Metrics: map[string]jsonMetric{}}
	if m.tr == nil {
		for _, d := range endToEnd {
			res.Metrics[d.name] = jsonMetric{e2e[d.name], d.unit}
		}
	} else {
		pl := m.perLayerValues()
		fmt.Fprintf(w, "per-layer (traced: %.1f CPU-s sampled, spans in %s)\n", float64(m.sampledNs)/1e9, spanFile(name, seed))
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.name, pl[d.name], d.unit)
			res.Metrics[d.name] = jsonMetric{pl[d.name], d.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	fmt.Fprintln(w, string(line))
	return nil
}
