package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"roborepair/internal/metrics"
	"roborepair/internal/radio"
	"roborepair/internal/scenario"
	"roborepair/internal/sim"
)

// kind is the layer a station's frame handler belongs to.
type kind int

const (
	kindSensor  kind = iota // internal/node
	kindRobot               // internal/robot
	kindManager             // internal/core
	numKinds
)

// spans accumulates frame-handler spans in memory. Delivery is
// synchronous, so a handler that transmits runs its receivers' handlers
// inside its own span: spans nest, and a span's self time is its duration
// minus its children's.
type spans struct {
	open []openSpan
	self [numKinds]time.Duration
	rx   [numKinds]uint64
	top  time.Duration // summed duration of the outermost spans
}

type openSpan struct {
	start time.Time
	child time.Duration
}

func (s *spans) handle(k kind, st radio.Station, f radio.Frame) {
	s.open = append(s.open, openSpan{start: time.Now()})
	st.HandleFrame(f)
	n := len(s.open) - 1
	sp := s.open[n]
	d := time.Since(sp.start)
	s.open = s.open[:n]
	s.self[k] += d - sp.child
	s.rx[k]++
	if n > 0 {
		s.open[n-1].child += d
	} else {
		s.top += d
	}
}

// proxy times a station's frame handler; every other method is the
// station's own.
type proxy struct {
	radio.Station
	kind  kind
	spans *spans
}

func (p *proxy) HandleFrame(f radio.Frame) { p.spans.handle(p.kind, p.Station, f) }

// mobileProxy keeps a mobile station mobile on the medium, which then
// polls the robot's live position instead of a cached one.
type mobileProxy struct{ proxy }

func (p *mobileProxy) RadioMobile() bool {
	return p.Station.(radio.MobileStation).RadioMobile()
}

// wrap re-attaches st behind a timing proxy.
func (s *spans) wrap(m *radio.Medium, st radio.Station, k kind) {
	p := proxy{Station: st, kind: k, spans: s}
	if _, ok := st.(radio.MobileStation); ok {
		m.Attach(&mobileProxy{p})
		return
	}
	m.Attach(&p)
}

// traceStats is what the traced run measures.
type traceStats struct {
	wall time.Duration
	// stepped is the summed wall time of every Sched.Step and of the final
	// World.Run, each timed on its own: the run minus the loop around it.
	stepped time.Duration
	spans   *spans
	res     scenario.Results
}

// tracedRun runs one world with every station behind a timing proxy. It
// steps the scheduler one event at a time so replacement sensors are
// wrapped as soon as the event that deployed them returns.
func tracedRun(cfg scenario.Config) (tr traceStats, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	w, err := scenario.New(cfg)
	if err != nil {
		return tr, err
	}
	sp := &spans{}
	ids := make([]radio.NodeID, 0, len(w.Sensors))
	for id := range w.Sensors {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		sp.wrap(w.Medium, w.Sensors[id], kindSensor)
	}
	for _, r := range w.Robots {
		sp.wrap(w.Medium, r, kindRobot)
	}
	if w.Manager != nil {
		sp.wrap(w.Medium, w.Manager, kindManager)
	}
	// Replacement sensors take the next free IDs, in order.
	var next radio.NodeID
	if len(ids) > 0 {
		next = ids[len(ids)-1] + 1
	}
	// A stop event at the horizon: Step has no look-ahead, and events past
	// the horizon must not run. World.Run then runs whatever else is due
	// at the horizon and collects the results.
	stop := false
	if _, err := w.Sched.At(sim.Time(cfg.SimTime), func() { stop = true }); err != nil {
		return tr, err
	}
	runtime.GC()
	start := time.Now()
	wrapped := len(ids)
	for !stop {
		t0 := time.Now()
		more := w.Sched.Step()
		tr.stepped += time.Since(t0)
		if !more {
			break
		}
		for len(w.Sensors) > wrapped {
			s, ok := w.Sensors[next]
			if !ok {
				break
			}
			sp.wrap(w.Medium, s, kindSensor)
			next++
			wrapped++
		}
	}
	t0 := time.Now()
	tr.res = w.Run()
	end := time.Now()
	tr.stepped += end.Sub(t0)
	tr.wall = end.Sub(start)
	tr.spans = sp
	return tr, nil
}

// trafficCategories are the registry's transmission categories; the
// bookkeeping categories (collisions, blackout and wire drops) count
// events that are not transmissions.
var (
	trafficCategories = []string{
		metrics.CatInit, metrics.CatBeacon, metrics.CatFailureReport,
		metrics.CatRepairRequest, metrics.CatLocUpdate, metrics.CatReplacement,
		metrics.CatReportRetx, metrics.CatAck, metrics.CatTakeover, metrics.CatRelocate,
	}
	bookkeepingCategories = []string{
		radio.CatCollision, radio.CatBlackout, radio.CatCorruptFrame, radio.CatMalformed,
	}
)

// perLayer lists the traced run's metrics, layer by layer.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns"},
		{"sim.queue_high_water", "count"},
		{"sim.outside_handlers_s", "s"},
		{"radio.tx", "count"},
	}
	for _, c := range trafficCategories {
		defs = append(defs, metricDef{"radio.tx." + c, "count"})
	}
	defs = append(defs, []metricDef{
		{"radio.rx", "count"},
		{"radio.rx_per_tx", "ratio"},
		{"radio.collisions", "count"},
		{"radio.blackout_drops", "count"},
		{"wire.corrupt_frames", "count"},
		{"wire.malformed_drops", "count"},
		{"wire.malformed_per_rx", "ratio"},
		{"netstack.report_hops_mean", "hops"},
		{"netstack.request_hops_mean", "hops"},
		{"node.rx", "count"},
		{"node.self_ns_per_rx", "ns"},
		{"node.reports_sent", "count"},
		{"node.report_retx", "count"},
		{"node.reports_abandoned", "count"},
		{"node.report_delivery_ratio", "ratio"},
		{"robot.rx", "count"},
		{"robot.self_ns_per_rx", "ns"},
		{"robot.repairs", "count"},
		{"robot.travel_m", "m"},
		{"core.rx", "count"},
		{"core.self_ns_per_rx", "ns"},
		{"core.requests_issued", "count"},
		{"core.redispatches", "count"},
		{"core.takeovers", "count"},
	}...)
	for _, b := range shareBuckets {
		defs = append(defs, metricDef{"cpu_share." + b, "fraction"}, metricDef{"alloc_share." + b, "fraction"})
	}
	return append(defs, []metricDef{
		{"runtime.gc_cpu_frac", "fraction"},
		{"runtime.gc_cycles", "count"},
		{"trace.overhead_frac", "fraction"},
	}...)
}()

// traceWorkload is the per-layer measurement: one untraced run (the
// baseline for the tracing overhead), one traced run, then profiled runs
// for the rest of the budget. All of them must agree on the results.
func traceWorkload(wl workload, seed int64, horizon float64, budget time.Duration) (*report, error) {
	cfg, err := wl.config(seed, horizon)
	if err != nil {
		return nil, err
	}
	v := newVerifier(wl, horizon)
	deadline := time.Now().Add(budget)
	base, err := runOnce(cfg)
	v.record("untraced run", seed, base.res, err)
	tr, err := tracedRun(cfg)
	v.record("traced run", seed, tr.res, err)
	if tr.spans == nil {
		tr.spans = &spans{}
	}
	pr, err := profileRuns(cfg, v, deadline)
	if err != nil {
		return nil, err
	}

	rep := newReport(v)
	sp := tr.spans
	var self time.Duration
	var rx uint64
	for k := range sp.self {
		self += sp.self[k]
		rx += sp.rx[k]
	}
	// The add-up checks compare each breakdown with a total measured on
	// its own. Handler self times plus the time the steps spent outside
	// handlers must make up the traced run's wall time, less only the loop
	// that steps and wraps.
	outside := tr.stepped - sp.top
	rep.agree("handler self times + sim.outside_handlers_s", (self + outside).Seconds(), tr.wall.Seconds(), stepTolerance)
	// The CPU profile's samples must add up to the process CPU time of the
	// profiled runs, and the allocation profile's estimated bytes to the
	// bytes the runtime counted, each within its sampling error.
	rep.agree("sampled CPU of cpu_share.*", total(pr.cpuNs)/1e9, pr.cpu.Seconds(), samplingTolerance(pr.cpuSamples))
	rep.agree("estimated bytes of alloc_share.*", total(pr.allocB), float64(pr.allocated),
		samplingTolerance(float64(pr.allocated)/allocSampleBytes))
	cpu, alloc := shares(pr.cpuNs), shares(pr.allocB)

	res := base.res
	reg := res.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	count := func(name string, n uint64) { rep.put(name, float64(n)) }
	perRx := func(d time.Duration, n uint64) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }

	count("sim.events", base.events)
	rep.put("sim.ns_per_event", ratio(float64(base.wall.Nanoseconds()), float64(base.events)))
	count("sim.queue_high_water", uint64(base.highWater))
	rep.put("sim.outside_handlers_s", outside.Seconds())

	tx := reg.TotalTx()
	for _, c := range bookkeepingCategories {
		tx -= reg.Tx(c)
	}
	count("radio.tx", tx)
	for _, c := range trafficCategories {
		count("radio.tx."+c, reg.Tx(c))
	}
	count("radio.rx", rx)
	rep.put("radio.rx_per_tx", ratio(float64(rx), float64(tx)))
	count("radio.collisions", reg.Tx(radio.CatCollision))
	count("radio.blackout_drops", reg.Tx(radio.CatBlackout))

	count("wire.corrupt_frames", reg.Tx(radio.CatCorruptFrame))
	count("wire.malformed_drops", reg.Tx(radio.CatMalformed))
	rep.put("wire.malformed_per_rx", ratio(float64(reg.Tx(radio.CatMalformed)), float64(rx)))

	rep.put("netstack.report_hops_mean", res.AvgReportHops)
	rep.put("netstack.request_hops_mean", res.AvgRequestHops)

	count("node.rx", sp.rx[kindSensor])
	rep.put("node.self_ns_per_rx", perRx(sp.self[kindSensor], sp.rx[kindSensor]))
	count("node.reports_sent", uint64(res.ReportsSent))
	count("node.report_retx", uint64(res.ReportRetx))
	count("node.reports_abandoned", uint64(res.ReportsAbandoned))
	rep.put("node.report_delivery_ratio", res.ReportDeliveryRatio())

	count("robot.rx", sp.rx[kindRobot])
	rep.put("robot.self_ns_per_rx", perRx(sp.self[kindRobot], sp.rx[kindRobot]))
	count("robot.repairs", uint64(res.Repairs))
	rep.put("robot.travel_m", res.TotalTravel)
	count("core.rx", sp.rx[kindManager])
	rep.put("core.self_ns_per_rx", perRx(sp.self[kindManager], sp.rx[kindManager]))
	count("core.requests_issued", uint64(res.RequestsIssued))
	count("core.redispatches", uint64(res.Redispatches))
	count("core.takeovers", uint64(res.ManagerTakeovers))

	for _, b := range shareBuckets {
		rep.put("cpu_share."+b, cpu[b])
		rep.put("alloc_share."+b, alloc[b])
	}
	rep.put("runtime.gc_cpu_frac", base.gcCPU)
	count("runtime.gc_cycles", base.gcCycles)
	rep.put("trace.overhead_frac", ratio(tr.wall.Seconds(), base.wall.Seconds())-1)
	return rep, nil
}

// stepTolerance bounds the share of the traced run's wall time spent in
// the loop around Sched.Step: the stop check, wrapping replacement
// sensors, and the clock reads themselves.
const stepTolerance = 0.05

// samplingTolerance bounds the relative error of a profile total built
// from n samples: three standard errors of a Poisson count, plus 5% for
// what a profiler misses (samples lost at its start and stop, timer skew).
func samplingTolerance(n float64) float64 {
	if n < 1 {
		return 1
	}
	return 0.05 + 3/math.Sqrt(n)
}

// agree checks that a breakdown's sum matches an independently measured
// total within a relative tolerance.
func (r *report) agree(what string, sum, measured, tol float64) {
	if !(math.Abs(sum-measured) <= tol*measured) {
		r.fail("%s sum to %.6g, measured %.6g (tolerance %.3g)", what, sum, measured, tol)
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
