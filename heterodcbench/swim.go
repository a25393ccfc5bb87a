package main

import (
	"fmt"

	"heterodc/internal/fault"
	"heterodc/internal/kernel"
	"heterodc/internal/member"
	"heterodc/internal/sched"
	"heterodc/internal/topo"
)

// The membership workload: a fat-tree rack with no guest work, only SWIM
// membership under message loss and one permanent crash.
const (
	swimOversub    = 4
	swimHeartbeat  = 1e-3 // protocol round, simulated seconds
	swimLoss       = 0.01 // per-message-leg drop probability
	swimCrashRound = 20   // crashedNode crashes for good at this round
	// swimNominalQuanta is the engine work wall_s and cpu_s are scaled to.
	// A run's work is set by how far suspicions cascade under the seed's
	// loss pattern: 0.65-0.95 M quanta over seeds 501-506 and 601-608,
	// while the host time per quantum stayed within a few percent. Scaled,
	// the two metrics follow the host cost of the simulation rather than
	// the seed's draw.
	swimNominalQuanta = 800_000
)

// swimConfig holds what the engine-agreement test shrinks.
type swimConfig struct {
	nodes, racks int
	rounds       int // horizon
	chunkRounds  int // rounds per Cluster.Run call
	engine       string
}

var swimDefault = swimConfig{nodes: 256, racks: 16, rounds: 1000, chunkRounds: 50, engine: "par"}

// crashedNode is the node the fault plan crashes; every other death
// verdict is a false death.
const crashedNode = 1

type swim struct {
	cfg  swimConfig
	seed int64
}

func newSwim(cfg swimConfig, seed int64) *swim { return &swim{cfg: cfg, seed: seed} }

func (s *swim) workers() int {
	if s.cfg.engine == "par" {
		return parWorkers(s.cfg.nodes)
	}
	return 1
}

type swimRun struct {
	s   *swim
	cl  *kernel.Cluster
	svc *member.Service
}

func (s *swim) setup(tr *tracer) (instance, setupInfo, error) {
	c := s.cfg
	end := tr.begin("kernel.NewClusterTopo", map[string]any{"nodes": c.nodes})
	cl, _, err := kernel.NewClusterTopo(sched.RackArches(c.nodes), kernel.DefaultInterconnect(),
		topo.FatTree(c.racks, swimOversub))
	end(nil)
	if err != nil {
		return nil, setupInfo{}, fmt.Errorf("swim: %w", err)
	}
	if c.engine == "par" {
		cl.UseParallelEngine(0)
	}
	cl.InjectFaults(fault.Plan{
		Seed:     s.seed,
		DropProb: swimLoss,
		Crashes:  []fault.Crash{{Node: crashedNode, At: s.crashAt()}},
	})
	end = tr.begin("member.Attach", nil)
	svc, err := member.Attach(cl, member.Config{HeartbeatPeriod: swimHeartbeat, Seed: s.seed})
	end(nil)
	if err != nil {
		return nil, setupInfo{}, fmt.Errorf("swim: %w", err)
	}
	return &swimRun{s: s, cl: cl, svc: svc}, setupInfo{}, nil
}

func (s *swim) crashAt() float64 { return swimCrashRound * swimHeartbeat }

func (r *swimRun) release() { detachEngine(r.cl) }

func (r *swimRun) run(tr *tracer, pc *partClock) outcome {
	c := r.s.cfg
	out := outcome{layer: map[string]float64{}, drivesEngine: true}
	inc := make([]uint64, c.nodes)
	for n := range inc {
		inc[n] = r.cl.Incarnation(n)
	}
	// One timed part: with one or two runs to a budget, per-chunk medians
	// would add nothing, and the run's heap peak is steadier than per-chunk
	// ones (which depend on where the ten-odd collections of a run fall).
	pc.start()
	for done := 0; done < c.rounds; {
		step := c.chunkRounds
		if done+step > c.rounds {
			step = c.rounds - done
		}
		done += step
		until := float64(done) * swimHeartbeat
		before := r.cl.Quanta()
		sent := r.svc.Stats().HeartbeatsSent
		end := tr.begin("kernel.Cluster.Run", map[string]any{"until": until})
		r.cl.Run(until)
		end(map[string]any{
			"quanta":          r.cl.Quanta() - before,
			"heartbeats_sent": r.svc.Stats().HeartbeatsSent - sent,
		})
		// Incarnations never go backwards (one check per boundary).
		out.attempted++
		for n := range inc {
			cur := r.cl.Incarnation(n)
			if cur < inc[n] {
				out.fail(1, fmt.Sprintf("node %d incarnation fell from %d to %d at %.3fs", n, inc[n], cur, until))
				break
			}
			inc[n] = cur
		}
	}
	pc.stop()
	out.layer["kernel.step_calls"] = float64(out.attempted)

	detect, falseDeaths := 0.0, 0
	for _, d := range r.svc.Deaths() {
		if d.Node == crashedNode {
			if detect == 0 {
				detect = d.At - r.s.crashAt()
			}
		} else {
			falseDeaths++
		}
	}
	out.attempted += 2
	if detect == 0 {
		out.fail(1, fmt.Sprintf("crashed node %d was never declared dead", crashedNode))
	}
	_, stale := r.cl.FenceStats()
	if stale != 0 {
		out.fail(1, fmt.Sprintf("%d stale-incarnation messages delivered unfenced", stale))
	}

	st := r.svc.Stats()
	out.sim = map[string]float64{
		"sim_detect_ms":           detect * 1e3,
		"sim_false_deaths":        float64(falseDeaths),
		"sim_msgs_per_node_round": float64(st.HeartbeatsSent) / float64(c.nodes) / float64(c.rounds),
	}
	cc := readCluster(r.cl)
	fenced, _ := r.cl.FenceStats()
	out.digest = fmt.Sprintf("%s|fenced=%d|inc=%v|msgs=%d/%d/%d", memberDigest(r.svc), fenced, inc,
		cc.messages, cc.bytes, cc.drop)
	out.instrs = cc.instrs
	out.workScale = swimNominalQuanta / float64(cc.quanta)
	cc.addTo(out.layer)
	addMember(out.layer, st)
	return out
}
