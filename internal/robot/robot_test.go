package robot

import (
	"math"
	"testing"

	"roborepair/internal/geom"
	"roborepair/internal/metrics"
	"roborepair/internal/netstack"
	"roborepair/internal/radio"
	"roborepair/internal/sim"
	"roborepair/internal/wire"
)

// recordMode records every published location update.
type recordMode struct {
	updates []wire.RobotUpdate
}

func (m *recordMode) Publish(_ *Robot, up wire.RobotUpdate) {
	m.updates = append(m.updates, up)
}

type rig struct {
	sched  *sim.Scheduler
	medium *radio.Medium
	mode   *recordMode
}

func newRig() *rig {
	sched := sim.NewScheduler()
	return &rig{
		sched:  sched,
		medium: mustMedium(sched, metrics.NewRegistry(), radio.Config{CellSize: 63}),
		mode:   &recordMode{},
	}
}

func testRobotConfig() Config {
	return Config{Speed: 1, Range: 250, UpdateThreshold: 20}
}

func (g *rig) newRobot(id radio.NodeID, pos geom.Point, hooks Hooks) *Robot {
	r := New(id, pos, testRobotConfig(), g.mode, g.medium, hooks)
	r.Start(0)
	return r
}

func TestRobotInitialPublish(t *testing.T) {
	g := newRig()
	r := g.newRobot(1, geom.Pt(10, 20), Hooks{})
	g.sched.Run(1)
	if len(g.mode.updates) != 1 {
		t.Fatalf("initial publishes = %d, want 1", len(g.mode.updates))
	}
	up := g.mode.updates[0]
	if up.Seq != 1 || !up.Loc.Eq(geom.Pt(10, 20)) || up.Robot != 1 {
		t.Fatalf("initial update wrong: %+v", up)
	}
	if r.Busy() {
		t.Fatal("idle robot reports busy")
	}
}

func TestRobotTravelsAtConfiguredSpeed(t *testing.T) {
	g := newRig()
	r := g.newRobot(1, geom.Pt(0, 0), Hooks{})
	g.sched.Run(1)
	r.Enqueue(Task{Failed: 100, Loc: geom.Pt(100, 0), EnqueuedAt: g.sched.Now()})
	g.sched.Run(51)
	// At t=51, 50 s of travel at 1 m/s from t=1: x≈50.
	if got := r.Pos().X; math.Abs(got-50) > 0.001 {
		t.Fatalf("mid-flight x = %v, want 50", got)
	}
	g.sched.Run(101)
	if !r.Pos().Eq(geom.Pt(100, 0)) {
		t.Fatalf("final pos = %v", r.Pos())
	}
	if r.Busy() {
		t.Fatal("robot still busy after arrival")
	}
	if math.Abs(r.Traveled()-100) > 1e-9 {
		t.Fatalf("traveled = %v, want 100", r.Traveled())
	}
}

func TestRobotPublishesEveryThreshold(t *testing.T) {
	g := newRig()
	r := g.newRobot(1, geom.Pt(0, 0), Hooks{})
	g.sched.Run(1)
	r.Enqueue(Task{Failed: 100, Loc: geom.Pt(100, 0), EnqueuedAt: g.sched.Now()})
	g.sched.Run(200)
	// Seq 1 at init; en-route updates at 20/40/60/80 m; one on arrival.
	if got := len(g.mode.updates); got != 6 {
		t.Fatalf("publishes = %d, want 6: %+v", got, g.mode.updates)
	}
	wantX := []float64{0, 20, 40, 60, 80, 100}
	for i, up := range g.mode.updates {
		if math.Abs(up.Loc.X-wantX[i]) > 0.001 {
			t.Fatalf("update %d at x=%v, want %v", i, up.Loc.X, wantX[i])
		}
		if up.Seq != uint64(i+1) {
			t.Fatalf("update %d seq=%d, want %d", i, up.Seq, i+1)
		}
	}
	if r.Seq() != 6 {
		t.Fatalf("Seq = %d", r.Seq())
	}
}

func TestRobotShortTripPublishesOnlyArrival(t *testing.T) {
	g := newRig()
	r := g.newRobot(1, geom.Pt(0, 0), Hooks{})
	g.sched.Run(1)
	r.Enqueue(Task{Failed: 100, Loc: geom.Pt(15, 0), EnqueuedAt: g.sched.Now()})
	g.sched.Run(100)
	// Init + arrival only: the 15 m leg is under the 20 m threshold.
	if got := len(g.mode.updates); got != 2 {
		t.Fatalf("publishes = %d, want 2", got)
	}
}

func TestRobotFCFSOrder(t *testing.T) {
	g := newRig()
	var done []radio.NodeID
	r := g.newRobot(1, geom.Pt(0, 0), Hooks{
		OnTaskDone: func(_ *Robot, task Task, _ float64, _ sim.Duration) {
			done = append(done, task.Failed)
		},
	})
	g.sched.Run(1)
	r.Enqueue(Task{Failed: 101, Loc: geom.Pt(50, 0), EnqueuedAt: g.sched.Now()})
	r.Enqueue(Task{Failed: 102, Loc: geom.Pt(10, 0), EnqueuedAt: g.sched.Now()})
	r.Enqueue(Task{Failed: 103, Loc: geom.Pt(30, 0), EnqueuedAt: g.sched.Now()})
	if r.QueueLen() != 2 {
		t.Fatalf("QueueLen = %d, want 2", r.QueueLen())
	}
	g.sched.Run(500)
	if len(done) != 3 {
		t.Fatalf("completed %d tasks", len(done))
	}
	for i, want := range []radio.NodeID{101, 102, 103} {
		if done[i] != want {
			t.Fatalf("completion order %v, want FCFS [101 102 103]", done)
		}
	}
	// Travel: 0→50 (50) + 50→10 (40) + 10→30 (20) = 110.
	if math.Abs(r.Traveled()-110) > 1e-9 {
		t.Fatalf("traveled = %v, want 110", r.Traveled())
	}
}

func TestRobotNearestFirstOrder(t *testing.T) {
	g := newRig()
	var done []radio.NodeID
	cfg := testRobotConfig()
	cfg.Queue = NearestFirst
	r := New(1, geom.Pt(0, 0), cfg, g.mode, g.medium, Hooks{
		OnTaskDone: func(_ *Robot, task Task, _ float64, _ sim.Duration) {
			done = append(done, task.Failed)
		},
	})
	r.Start(0)
	g.sched.Run(1)
	// Tasks in an order that differs between FCFS and nearest-first: the
	// first task starts immediately (robot idle), then the queue holds
	// tasks at x=90 and x=60; after finishing at x=50, the x=60 task is
	// closer and must run before the x=90 task despite arriving later.
	r.Enqueue(Task{Failed: 101, Loc: geom.Pt(50, 0), EnqueuedAt: g.sched.Now()})
	r.Enqueue(Task{Failed: 102, Loc: geom.Pt(90, 0), EnqueuedAt: g.sched.Now()})
	r.Enqueue(Task{Failed: 103, Loc: geom.Pt(60, 0), EnqueuedAt: g.sched.Now()})
	g.sched.Run(500)
	want := []radio.NodeID{101, 103, 102}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completion order %v, want nearest-first %v", done, want)
		}
	}
}

func TestQueuePolicyString(t *testing.T) {
	if FCFS.String() != "fcfs" || NearestFirst.String() != "nearest-first" {
		t.Fatal("queue policy names wrong")
	}
}

func TestRobotZeroDistanceTask(t *testing.T) {
	g := newRig()
	var dists []float64
	r := g.newRobot(1, geom.Pt(5, 5), Hooks{
		OnTaskDone: func(_ *Robot, _ Task, d float64, _ sim.Duration) { dists = append(dists, d) },
	})
	g.sched.Run(1)
	r.Enqueue(Task{Failed: 100, Loc: geom.Pt(5, 5), EnqueuedAt: g.sched.Now()})
	if len(dists) != 1 || dists[0] != 0 {
		t.Fatalf("zero-distance task dists = %v", dists)
	}
	if r.Busy() {
		t.Fatal("robot stuck busy after zero-distance task")
	}
}

func TestRobotServiceTimeDelaysCompletion(t *testing.T) {
	g := newRig()
	var doneAt sim.Time
	cfg := testRobotConfig()
	cfg.ServiceTime = 30
	r := New(1, geom.Pt(0, 0), cfg, g.mode, g.medium, Hooks{
		OnTaskDone: func(*Robot, Task, float64, sim.Duration) { doneAt = g.sched.Now() },
	})
	r.Start(0)
	g.sched.Run(1)
	r.Enqueue(Task{Failed: 100, Loc: geom.Pt(10, 0), EnqueuedAt: g.sched.Now()})
	g.sched.Run(500)
	// Started at t=1, 10 s travel, 30 s service → done at 41.
	if math.Abs(float64(doneAt)-41) > 1e-9 {
		t.Fatalf("doneAt = %v, want 41", doneAt)
	}
}

func TestRobotSpawnsReplacement(t *testing.T) {
	g := newRig()
	var spawnedAt geom.Point
	var spawnedBy radio.NodeID
	r := g.newRobot(1, geom.Pt(0, 0), Hooks{
		SpawnReplacement: func(rb *Robot, loc geom.Point) radio.NodeID {
			spawnedAt = loc
			spawnedBy = rb.ID()
			return 999
		},
	})
	g.sched.Run(1)
	r.Enqueue(Task{Failed: 100, Loc: geom.Pt(25, 0), EnqueuedAt: g.sched.Now()})
	g.sched.Run(100)
	if !spawnedAt.Eq(geom.Pt(25, 0)) || spawnedBy != 1 {
		t.Fatalf("spawn at %v by %v", spawnedAt, spawnedBy)
	}
}

func TestRobotDeliverEnqueuesReportsAndRequests(t *testing.T) {
	g := newRig()
	var reports, requests int
	r := g.newRobot(1, geom.Pt(0, 0), Hooks{
		OnReportReceived:  func(wire.FailureReport, int) { reports++ },
		OnRequestReceived: func(wire.RepairRequest, int) { requests++ },
	})
	g.sched.Run(1)
	r.HandleFrame(radio.Frame{Payload: netstack.Packet{
		Dst: 1, Payload: wire.FailureReport{Failed: 50, Loc: geom.Pt(40, 0)},
	}})
	if reports != 1 || !r.Busy() {
		t.Fatalf("report not enqueued: reports=%d busy=%v", reports, r.Busy())
	}
	r.HandleFrame(radio.Frame{Payload: netstack.Packet{
		Dst: 1, Payload: wire.RepairRequest{Failed: 51, Loc: geom.Pt(60, 0)},
	}})
	if requests != 1 || r.QueueLen() != 1 {
		t.Fatalf("request not queued: requests=%d queue=%d", requests, r.QueueLen())
	}
}

func TestRobotMediumIndexFollowsMovement(t *testing.T) {
	g := newRig()
	r := g.newRobot(1, geom.Pt(0, 0), Hooks{})
	g.sched.Run(1)
	r.Enqueue(Task{Failed: 100, Loc: geom.Pt(400, 0), EnqueuedAt: g.sched.Now()})
	g.sched.Run(1000)
	// After arriving at (400,0), a query near the destination must find it.
	found := g.medium.InRange(geom.Pt(400, 0), 10, 99)
	if len(found) != 1 || found[0].RadioID() != 1 {
		t.Fatalf("medium index stale after movement: %v", found)
	}
	// And nothing remains indexed at the origin.
	if got := g.medium.InRange(geom.Pt(0, 0), 10, 99); len(got) != 0 {
		t.Fatalf("stale index entry at origin: %v", got)
	}
}

func TestRobotRecordsMetricsSeries(t *testing.T) {
	g := newRig()
	reg := g.medium.Metrics()
	r := g.newRobot(1, geom.Pt(0, 0), Hooks{})
	g.sched.Run(1)
	r.Enqueue(Task{Failed: 100, Loc: geom.Pt(80, 0), EnqueuedAt: g.sched.Now()})
	g.sched.Run(500)
	travel := reg.Series(metrics.SeriesTravelPerFailure)
	if travel.N() != 1 || math.Abs(travel.Mean()-80) > 1e-9 {
		t.Fatalf("travel series wrong: %v", travel)
	}
	delay := reg.Series(metrics.SeriesRepairDelay)
	if delay.N() != 1 || math.Abs(delay.Mean()-80) > 1e-9 {
		t.Fatalf("delay series wrong: %v", delay)
	}
}

func TestRobotPosStationaryBetweenTasks(t *testing.T) {
	g := newRig()
	r := g.newRobot(1, geom.Pt(0, 0), Hooks{})
	g.sched.Run(1)
	r.Enqueue(Task{Failed: 100, Loc: geom.Pt(30, 0), EnqueuedAt: g.sched.Now()})
	g.sched.Run(200)
	p1 := r.Pos()
	g.sched.Run(300)
	if !r.Pos().Eq(p1) {
		t.Fatal("idle robot drifted")
	}
}

func TestRobotCargoRestocking(t *testing.T) {
	g := newRig()
	var done []radio.NodeID
	cfg := testRobotConfig()
	cfg.Cargo = 2
	cfg.Depot = geom.Pt(0, 0)
	r := New(1, geom.Pt(0, 0), cfg, g.mode, g.medium, Hooks{
		OnTaskDone: func(_ *Robot, task Task, _ float64, _ sim.Duration) {
			done = append(done, task.Failed)
		},
	})
	r.Start(0)
	g.sched.Run(1)
	if r.Cargo() != 2 {
		t.Fatalf("initial cargo = %d", r.Cargo())
	}
	for i, x := range []float64{10, 20, 30} {
		r.Enqueue(Task{Failed: radio.NodeID(101 + i), Loc: geom.Pt(x, 0), EnqueuedAt: g.sched.Now()})
	}
	g.sched.Run(1000)
	if len(done) != 3 {
		t.Fatalf("completed %d tasks", len(done))
	}
	if r.restocks != 1 {
		t.Fatalf("restocks = %d, want 1 (after two deliveries)", r.restocks)
	}
	// Travel: 0→10 (10) + 10→20 (10) + 20→depot (20) + depot→30 (30) = 70.
	if math.Abs(r.Traveled()-70) > 1e-9 {
		t.Fatalf("traveled = %v, want 70 including the depot leg", r.Traveled())
	}
	if r.Cargo() != 1 {
		t.Fatalf("cargo after restock+1 delivery = %d, want 1", r.Cargo())
	}
	leg := g.medium.Metrics().Series("restock_leg_m")
	if leg.N() != 1 || math.Abs(leg.Mean()-20) > 1e-9 {
		t.Fatalf("restock leg series wrong: %v", leg)
	}
}

func TestRobotUnlimitedCargoNeverRestocks(t *testing.T) {
	g := newRig()
	r := g.newRobot(1, geom.Pt(0, 0), Hooks{})
	g.sched.Run(1)
	for i := 0; i < 5; i++ {
		r.Enqueue(Task{Failed: radio.NodeID(101 + i), Loc: geom.Pt(float64(10+i*10), 0), EnqueuedAt: g.sched.Now()})
	}
	g.sched.Run(1000)
	if r.restocks != 0 {
		t.Fatalf("unlimited robot restocked %d times", r.restocks)
	}
	if r.Cargo() != -1 {
		t.Fatalf("unlimited cargo = %d, want -1", r.Cargo())
	}
}

func TestRobotFailNowStopsEverything(t *testing.T) {
	g := newRig()
	var done int
	r := g.newRobot(1, geom.Pt(0, 0), Hooks{
		OnTaskDone: func(*Robot, Task, float64, sim.Duration) { done++ },
	})
	g.sched.Run(1)
	r.Enqueue(Task{Failed: 101, Loc: geom.Pt(100, 0), EnqueuedAt: g.sched.Now()})
	r.Enqueue(Task{Failed: 102, Loc: geom.Pt(200, 0), EnqueuedAt: g.sched.Now()})
	g.sched.Run(30) // mid-flight
	pos := r.Pos()
	r.FailNow()
	if r.Alive() || r.RadioActive() {
		t.Fatal("failed robot still active")
	}
	seqAt := r.Seq()
	g.sched.Run(2000)
	if done != 0 {
		t.Fatalf("failed robot completed %d tasks", done)
	}
	if !r.Pos().Eq(pos) {
		t.Fatalf("failed robot moved from %v to %v", pos, r.Pos())
	}
	if r.Seq() != seqAt {
		t.Fatal("failed robot kept publishing")
	}
	// Further tasks are discarded.
	r.Enqueue(Task{Failed: 103, Loc: geom.Pt(10, 0), EnqueuedAt: g.sched.Now()})
	if r.Busy() || r.QueueLen() != 0 {
		t.Fatal("failed robot accepted a task")
	}
	r.FailNow() // idempotent
}

// mustMedium builds a medium for a config that cannot fail validation.
func mustMedium(sched *sim.Scheduler, reg *metrics.Registry, cfg radio.Config) *radio.Medium {
	m, err := radio.NewMedium(sched, reg, cfg)
	if err != nil {
		panic(err)
	}
	return m
}
