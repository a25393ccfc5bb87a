package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"heterodc/internal/core"
	"heterodc/internal/isa"
	"heterodc/internal/kernel"
	"heterodc/internal/member"
	"heterodc/internal/npb"
	"heterodc/internal/power"
	"heterodc/internal/sched"
	"heterodc/internal/topo"
	"heterodc/internal/traffic"
)

// The fleet workload: an open-loop Poisson stream of NPB jobs placed on a
// heterogeneous rack under SWIM membership.
const (
	fleetRacks     = 2
	fleetOversub   = 4
	fleetHeartbeat = 20e-3 // SWIM protocol round, simulated seconds
	fleetRate      = 500   // offered jobs per simulated second
)

// fleetConfig holds what the engine-agreement test shrinks.
type fleetConfig struct {
	nodes int
	// mix is the stream's benchmark/class multiset. Every seed offers the
	// same multiset, so every seed offers about the same guest work; the
	// seed draws thread counts, arrival instants and the order of the jobs.
	mix    []mixEntry
	engine string // "par" or "seq"
}

// mixEntry is n jobs of one benchmark and class.
type mixEntry struct {
	bench npb.Bench
	class npb.Class
	n     int
}

// fleetMix weights the stream toward the cheaper class-S kernels so a run
// takes a few seconds of host time while still offering 102 jobs, ten of
// them beyond the p90 sojourn. bt and bzip2 each retire about ten times the
// instructions of the others and are left out; two class-A verus jobs make
// it an S/A mix.
var fleetMix = []mixEntry{
	{npb.EP, npb.ClassS, 2}, {npb.IS, npb.ClassS, 6}, {npb.CG, npb.ClassS, 6},
	{npb.FT, npb.ClassS, 10}, {npb.SP, npb.ClassS, 2}, {npb.MG, npb.ClassS, 24},
	{npb.Verus, npb.ClassS, 50}, {npb.Verus, npb.ClassA, 2},
}

var fleetDefault = fleetConfig{nodes: 8, mix: fleetMix, engine: "par"}

// fleetSLO is the latency objective the open-loop accountant scores
// against; the benchmark reports sojourn quantiles, not SLO health.
var fleetSLO = traffic.SLO{LatencyTargetSec: 0.25, BudgetFrac: 0.10}

// fleetSettle is how far past the last job exit the cluster is run before
// membership counters are read: both engines stop at this absolute instant,
// so the counters are engine-invariant.
const fleetSettle = 0.05

type imageKey struct {
	bench   npb.Bench
	class   npb.Class
	threads int
}

func (k imageKey) name() string { return fmt.Sprintf("%s.%s.t%d", k.bench, k.class, k.threads) }

type fleet struct {
	cfg  fleetConfig
	seed int64
	jobs []sched.Job
	keys []imageKey
	// ref is each image's console output run natively on one x86 node.
	ref map[imageKey][]byte
}

func keyOf(j sched.Job) imageKey { return imageKey{j.Bench, j.Class, j.Threads} }

// fleetThreads are the thread counts jobs are built for.
var fleetThreads = []int{1, 2, 4}

// fleetJobs draws the stream. Each mix entry's jobs take the thread counts
// in turn from a seeded starting point, so every seed runs each benchmark
// at each thread count about equally often (the instructions a job retires
// depend on both); the seed then shuffles the jobs and draws their Poisson
// arrival instants.
func fleetJobs(cfg fleetConfig, seed int64) ([]sched.Job, error) {
	src, err := traffic.NewSource(traffic.Spec{Kind: traffic.KindPoisson, Rate: fleetRate, Seed: seed})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var jobs []sched.Job
	for _, e := range cfg.mix {
		off := rng.Intn(len(fleetThreads))
		for i := 0; i < e.n; i++ {
			jobs = append(jobs, sched.Job{Bench: e.bench, Class: e.class,
				Threads: fleetThreads[(off+i)%len(fleetThreads)]})
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	for i, at := range src.Arrivals(len(jobs)) {
		jobs[i].ID, jobs[i].Arrival = i, at
	}
	return jobs, nil
}

func newFleet(cfg fleetConfig, seed int64) (*fleet, error) {
	jobs, err := fleetJobs(cfg, seed)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	f := &fleet{cfg: cfg, seed: seed, jobs: jobs, ref: map[imageKey][]byte{}}
	seen := map[imageKey]bool{}
	for _, j := range jobs {
		if k := keyOf(j); !seen[k] {
			seen[k] = true
			f.keys = append(f.keys, k)
		}
	}
	sort.Slice(f.keys, func(a, b int) bool { return f.keys[a].name() < f.keys[b].name() })
	if err := f.references(); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return f, nil
}

// references runs every image of the stream natively on a single x86 node
// (through npb.Build, which also fills its image cache for the runs) and
// keeps the console output each job must reproduce. Two workers: the host
// has two cores.
func (f *fleet) references() error {
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs []string
	)
	work := make(chan imageKey)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				out, err := nativeOutput(k)
				mu.Lock()
				if err != nil {
					errs = append(errs, fmt.Sprintf("%s: %v", k.name(), err))
				} else {
					f.ref[k] = out
				}
				mu.Unlock()
			}
		}()
	}
	for _, k := range f.keys {
		work <- k
	}
	close(work)
	wg.Wait()
	if len(errs) > 0 {
		sort.Strings(errs)
		return fmt.Errorf("reference runs: %s", strings.Join(errs, "; "))
	}
	return nil
}

func nativeOutput(k imageKey) ([]byte, error) {
	img, err := npb.Build(k.bench, k.class, k.threads)
	if err != nil {
		return nil, err
	}
	cl := core.NewSingle(isa.X86)
	p, err := cl.Spawn(img, 0)
	if err != nil {
		return nil, err
	}
	code, err := cl.RunProcess(p)
	if err != nil {
		return nil, err
	}
	if code != 0 {
		return nil, fmt.Errorf("exit code %d", code)
	}
	return append([]byte(nil), p.Output()...), nil
}

func (f *fleet) workers() int {
	if f.cfg.engine == "par" {
		return parWorkers(f.cfg.nodes)
	}
	return 1
}

// observingPolicy is the dynamic balanced policy with a window onto the
// scheduler's State: every job RunOpenLoop admits stays in State.Active
// until it is retired, and RunOpenLoop consults Dynamic whenever it
// schedules its next action, so recording Active there reaches every
// process.
type observingPolicy struct {
	sched.Policy
	st    *sched.State
	procs map[*kernel.Process]sched.Job
}

func (p *observingPolicy) Weights(s *sched.State) []float64 {
	p.st = s
	p.observe()
	return p.Policy.Weights(s)
}

func (p *observingPolicy) Dynamic() bool {
	p.observe()
	return p.Policy.Dynamic()
}

func (p *observingPolicy) observe() {
	if p.st == nil {
		return
	}
	for _, jr := range p.st.Active {
		p.procs[jr.Proc] = jr.Job
	}
}

type fleetRun struct {
	f      *fleet
	cl     *kernel.Cluster
	svc    *member.Service
	runner *sched.Runner
	policy *observingPolicy
}

// setup compiles every image of the stream and builds the rack, its fabric
// and its detector. npb.Build caches images for the whole process, so the
// images are compiled here through core.BuildWith from npb.Source — the
// same work npb.Build does on a miss — and each set-up measures it anew.
func (f *fleet) setup(tr *tracer) (instance, setupInfo, error) {
	var info setupInfo
	for _, k := range f.keys {
		end := tr.begin("toolchain.build", map[string]any{"image": k.name()})
		t0 := time.Now()
		err := buildUncached(k)
		info.buildSec += time.Since(t0).Seconds()
		info.builds++
		end(nil)
		if err != nil {
			return nil, info, fmt.Errorf("fleet: build %s: %w", k.name(), err)
		}
	}
	end := tr.begin("kernel.NewClusterTopo", map[string]any{"nodes": f.cfg.nodes})
	cl, _, err := kernel.NewClusterTopo(sched.RackArches(f.cfg.nodes), kernel.DefaultInterconnect(),
		topo.FatTree(fleetRacks, fleetOversub))
	end(nil)
	if err != nil {
		return nil, info, fmt.Errorf("fleet: %w", err)
	}
	if f.cfg.engine == "par" {
		cl.UseParallelEngine(0)
	}
	end = tr.begin("member.Attach", nil)
	svc, err := member.Attach(cl, member.Config{HeartbeatPeriod: fleetHeartbeat, Seed: f.seed})
	end(nil)
	if err != nil {
		return nil, info, fmt.Errorf("fleet: %w", err)
	}
	pol := &observingPolicy{Policy: sched.DynamicBalanced(), procs: map[*kernel.Process]sched.Job{}}
	r := sched.NewRunner(cl, pol, power.DefaultModels(cl, true))
	return &fleetRun{f: f, cl: cl, svc: svc, runner: r, policy: pol}, info, nil
}

func buildUncached(k imageKey) error {
	src, err := npb.Source(k.bench, k.class, k.threads)
	if err != nil {
		return err
	}
	_, err = core.BuildWith(k.name(), core.DefaultBuildOptions(), src)
	return err
}

func (r *fleetRun) release() { detachEngine(r.cl) }

func (r *fleetRun) run(tr *tracer, pc *partClock) outcome {
	f := r.f
	out := outcome{attempted: len(f.jobs), layer: map[string]float64{}, drivesEngine: true}
	pc.start()
	end := tr.begin("sched.RunOpenLoop", map[string]any{"jobs": len(f.jobs)})
	res, err := r.runner.RunOpenLoop(sched.OpenLoop{Jobs: f.jobs, SLO: fleetSLO})
	end(nil)
	if err != nil {
		pc.stop()
		out.fail(len(f.jobs), fmt.Sprintf("RunOpenLoop: %v", err))
		return out
	}
	end = tr.begin("kernel.Cluster.Run", map[string]any{"until": res.Makespan + fleetSettle})
	r.cl.Run(res.Makespan + fleetSettle)
	end(nil)
	pc.stop()
	out.layer["kernel.step_calls"] = 2

	// Correctness: every offered job completed, without error, and printed
	// exactly what its image prints natively.
	if res.Completed != len(f.jobs) {
		out.problems = append(out.problems, fmt.Sprintf("completed %d of %d offered", res.Completed, len(f.jobs)))
	}
	ok := map[int]bool{}
	h := sha256.New()
	procs := make([]*kernel.Process, 0, len(r.policy.procs))
	for p := range r.policy.procs {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(a, b int) bool { return r.policy.procs[procs[a]].ID < r.policy.procs[procs[b]].ID })
	for _, p := range procs {
		j := r.policy.procs[p]
		exited, code := p.Exited()
		switch {
		case !exited:
			out.problems = append(out.problems, fmt.Sprintf("job %d never exited", j.ID))
		case p.Err() != nil:
			out.problems = append(out.problems, fmt.Sprintf("job %d: %v", j.ID, p.Err()))
		case code != 0:
			out.problems = append(out.problems, fmt.Sprintf("job %d exit code %d", j.ID, code))
		case !bytes.Equal(p.Output(), f.ref[keyOf(j)]):
			out.problems = append(out.problems, fmt.Sprintf("job %d (%s) output differs from its native run", j.ID, keyOf(j).name()))
		default:
			ok[j.ID] = true
		}
		fmt.Fprintf(h, "job%d:%x;", j.ID, sha256.Sum256(p.Output()))
	}
	out.failed = len(f.jobs) - len(ok)
	if out.failed > 0 && len(out.problems) == 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d jobs never reached the policy's State view", out.failed))
	}

	var soj []float64
	for _, j := range res.Jobs {
		if j.Outcome == sched.OutcomeCompleted {
			soj = append(soj, j.SojournSec)
		}
	}
	out.sim = map[string]float64{
		"sim_sojourn_p50_ms": nearestRank(soj, 0.50) * 1e3,
		"sim_sojourn_p90_ms": nearestRank(soj, 0.90) * 1e3,
		"sim_energy_j":       res.EnergyTotal,
	}
	out.digest = fmt.Sprintf("%s|%s|%x", res.Fingerprint(), memberDigest(r.svc), h.Sum(nil))

	cc := readCluster(r.cl)
	out.instrs = cc.instrs
	cc.addTo(out.layer)
	addMember(out.layer, r.svc.Stats())
	out.layer["sched.completed"] = float64(res.Completed)
	out.layer["sched.migrations"] = float64(res.Migrations)
	out.layer["traffic.offered"] = float64(res.Offered)
	return out
}

// nearestRank is the nearest-rank q-quantile (the traffic recorder's
// definition); 0 for no samples.
func nearestRank(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
