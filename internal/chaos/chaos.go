// Package chaos injects faults into a simulation run from a declarative,
// seeded plan: scheduled robot breakdowns, message-loss bursts, regional
// radio blackouts, battery drains, and a central-manager crash. A plan is
// plain data —
// JSON-serializable and parseable from a compact flag syntax — so any run
// or sweep can be replayed deterministically under the same faults.
//
// The package only describes and models faults; wiring them into a world
// (killing the robots, installing the loss and outage models) is the
// scenario layer's job, which keeps chaos free of dependencies on the
// simulation entities.
package chaos

import (
	"fmt"
	"math"

	"strconv"
	"strings"

	"roborepair/internal/geom"
	"roborepair/internal/radio"
	"roborepair/internal/rng"
	"roborepair/internal/sim"
)

// RobotFailure breaks one robot down permanently at time At. Robot is the
// zero-based index into the scenario's robot team (not a radio NodeID, so
// plans stay valid across team sizes and ID layouts).
type RobotFailure struct {
	At    float64 `json:"at"`
	Robot int     `json:"robot"`
}

// LossBurst raises the message-loss probability to P for every reception
// in the window [From, To).
type LossBurst struct {
	From float64 `json:"from"`
	To   float64 `json:"to"`
	P    float64 `json:"p"`
}

// Blackout silences every station within Radius of Center during
// [From, To): nothing inside the region sends or receives.
type Blackout struct {
	From   float64    `json:"from"`
	To     float64    `json:"to"`
	Center geom.Point `json:"center"`
	Radius float64    `json:"radius"`
}

// Corruption mutates in-flight frame bytes with probability P per
// reception during [From, To) (hostile-channel extension). Mode selects
// the mutation: "bitflip", "truncate", "garbage", "duplicate", "replay",
// or "mix" (the default when empty), which draws one of the five per
// corrupted frame.
type Corruption struct {
	From float64 `json:"from"`
	To   float64 `json:"to"`
	P    float64 `json:"p"`
	Mode string  `json:"mode,omitempty"`
}

// Drain bleeds robot batteries during [From, To): the targeted robots lose
// an extra Fraction of their battery capacity, spread uniformly over the
// window (an adversarial load — stuck actuators, headwinds, a parasitic
// payload). Robot is the zero-based team index to target, or -1 for the
// whole fleet. The directive is inert when the run has no battery layer
// (Config.Battery unset), mirroring mgr@ on manager-less algorithms.
type Drain struct {
	From     float64 `json:"from"`
	To       float64 `json:"to"`
	Fraction float64 `json:"fraction"`
	Robot    int     `json:"robot"` // -1 = all robots
}

// corruptionModes is the accepted Mode set ("" selects mix).
var corruptionModes = map[string]bool{
	"": true, "bitflip": true, "truncate": true, "garbage": true,
	"duplicate": true, "replay": true, "mix": true,
}

// FaultPlan is a declarative schedule of injected faults. The zero value
// (and nil) injects nothing.
type FaultPlan struct {
	RobotFailures []RobotFailure `json:"robotFailures,omitempty"`
	LossBursts    []LossBurst    `json:"lossBursts,omitempty"`
	Blackouts     []Blackout     `json:"blackouts,omitempty"`
	Corruptions   []Corruption   `json:"corruptions,omitempty"`
	Drains        []Drain        `json:"drains,omitempty"`
	// ManagerCrashAt kills the central manager at this time. Zero means
	// never; the field is ignored by algorithms without a central manager.
	ManagerCrashAt float64 `json:"managerCrashAt,omitempty"`
}

// Empty reports whether the plan injects no faults at all.
func (p *FaultPlan) Empty() bool {
	return p == nil ||
		(len(p.RobotFailures) == 0 && len(p.LossBursts) == 0 &&
			len(p.Blackouts) == 0 && len(p.Corruptions) == 0 &&
			len(p.Drains) == 0 && p.ManagerCrashAt == 0)
}

// Validate checks the plan's internal consistency. robots is the size of
// the robot team the plan will run against (≤ 0 skips the index check).
func (p *FaultPlan) Validate(robots int) error {
	if p == nil {
		return nil
	}
	for i, rf := range p.RobotFailures {
		if !(rf.At >= 0) { // also rejects NaN
			return fmt.Errorf("chaos: robot failure %d: bad time %v", i, rf.At)
		}
		if rf.Robot < 0 {
			return fmt.Errorf("chaos: robot failure %d: negative robot index %d", i, rf.Robot)
		}
		if robots > 0 && rf.Robot >= robots {
			return fmt.Errorf("chaos: robot failure %d: robot index %d out of range (team of %d)", i, rf.Robot, robots)
		}
	}
	for i, b := range p.LossBursts {
		if !(b.From >= 0 && b.To > b.From) { // also rejects NaN bounds
			return fmt.Errorf("chaos: loss burst %d: bad window [%v,%v)", i, b.From, b.To)
		}
		if !(b.P >= 0 && b.P <= 1) { // also rejects NaN
			return fmt.Errorf("chaos: loss burst %d: probability %v outside [0,1]", i, b.P)
		}
	}
	for i, b := range p.Blackouts {
		if !(b.From >= 0 && b.To > b.From) { // also rejects NaN bounds
			return fmt.Errorf("chaos: blackout %d: bad window [%v,%v)", i, b.From, b.To)
		}
		if !(b.Radius > 0) { // also rejects NaN
			return fmt.Errorf("chaos: blackout %d: radius %v not positive", i, b.Radius)
		}
		if math.IsNaN(b.Center.X) || math.IsNaN(b.Center.Y) {
			return fmt.Errorf("chaos: blackout %d: center %v is not a point", i, b.Center)
		}
	}
	for i, c := range p.Corruptions {
		if !(c.From >= 0 && c.To > c.From) { // also rejects NaN bounds
			return fmt.Errorf("chaos: corruption %d: bad window [%v,%v)", i, c.From, c.To)
		}
		if !(c.P >= 0 && c.P <= 1) { // also rejects NaN
			return fmt.Errorf("chaos: corruption %d: probability %v outside [0,1]", i, c.P)
		}
		if !corruptionModes[c.Mode] {
			return fmt.Errorf("chaos: corruption %d: unknown mode %q", i, c.Mode)
		}
	}
	for i, d := range p.Drains {
		if !(d.From >= 0 && d.To > d.From) { // also rejects NaN bounds
			return fmt.Errorf("chaos: drain %d: bad window [%v,%v)", i, d.From, d.To)
		}
		if !(d.Fraction > 0) || math.IsInf(d.Fraction, 0) { // also rejects NaN
			return fmt.Errorf("chaos: drain %d: fraction %v not positive and finite", i, d.Fraction)
		}
		if d.Robot < -1 {
			return fmt.Errorf("chaos: drain %d: bad robot index %d (want -1 for all)", i, d.Robot)
		}
		if robots > 0 && d.Robot >= robots {
			return fmt.Errorf("chaos: drain %d: robot index %d out of range (team of %d)", i, d.Robot, robots)
		}
	}
	if !(p.ManagerCrashAt >= 0) { // also rejects NaN
		return fmt.Errorf("chaos: bad manager crash time %v", p.ManagerCrashAt)
	}
	return nil
}

// String renders the plan in the compact syntax accepted by Parse.
func (p *FaultPlan) String() string {
	if p.Empty() {
		return ""
	}
	var parts []string
	for _, rf := range p.RobotFailures {
		parts = append(parts, fmt.Sprintf("robot@%s=%d", ftoa(rf.At), rf.Robot))
	}
	for _, b := range p.LossBursts {
		parts = append(parts, fmt.Sprintf("burst@%s-%s=%s", ftoa(b.From), ftoa(b.To), ftoa(b.P)))
	}
	for _, b := range p.Blackouts {
		parts = append(parts, fmt.Sprintf("blackout@%s-%s=%s,%s,%s",
			ftoa(b.From), ftoa(b.To), ftoa(b.Center.X), ftoa(b.Center.Y), ftoa(b.Radius)))
	}
	for _, c := range p.Corruptions {
		s := fmt.Sprintf("corrupt@%s-%s=%s", ftoa(c.From), ftoa(c.To), ftoa(c.P))
		if c.Mode != "" {
			s += "," + c.Mode
		}
		parts = append(parts, s)
	}
	for _, d := range p.Drains {
		s := fmt.Sprintf("drain@%s-%s=%s", ftoa(d.From), ftoa(d.To), ftoa(d.Fraction))
		if d.Robot >= 0 {
			s += "," + strconv.Itoa(d.Robot)
		}
		parts = append(parts, s)
	}
	if p.ManagerCrashAt > 0 {
		parts = append(parts, fmt.Sprintf("mgr@%s", ftoa(p.ManagerCrashAt)))
	}
	return strings.Join(parts, ";")
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Parse builds a plan from the compact semicolon-separated syntax used by
// the -fault CLI flags:
//
//	robot@T=IDX              robot IDX breaks down at time T
//	burst@T1-T2=P            loss probability P during [T1,T2)
//	blackout@T1-T2=X,Y,R     radius-R blackout around (X,Y) during [T1,T2)
//	corrupt@T1-T2=P[,mode]   corrupt each reception's bytes with
//	                         probability P during [T1,T2); mode is one of
//	                         bitflip|truncate|garbage|duplicate|replay|mix
//	                         (default mix)
//	drain@T1-T2=F[,IDX]      bleed fraction F of battery capacity from
//	                         robot IDX (all robots when omitted), spread
//	                         uniformly over [T1,T2); inert without
//	                         Config.Battery
//	mgr@T                    central manager crashes at time T
//
// Example: "robot@8000=0;burst@8000-12000=0.05;mgr@16000". An empty spec
// yields a nil plan.
func Parse(spec string) (*FaultPlan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &FaultPlan{}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		kind, rest, ok := strings.Cut(entry, "@")
		if !ok {
			return nil, fmt.Errorf("chaos: entry %q: want kind@spec", entry)
		}
		var err error
		switch kind {
		case "robot":
			err = parseRobot(p, rest)
		case "burst":
			err = parseBurst(p, rest)
		case "blackout":
			err = parseBlackout(p, rest)
		case "corrupt":
			err = parseCorrupt(p, rest)
		case "drain":
			err = parseDrain(p, rest)
		case "mgr":
			p.ManagerCrashAt, err = atof(rest)
		default:
			err = fmt.Errorf("unknown fault kind %q", kind)
		}
		if err != nil {
			return nil, fmt.Errorf("chaos: entry %q: %w", entry, err)
		}
	}
	if err := p.Validate(0); err != nil {
		return nil, err
	}
	return p, nil
}

func parseRobot(p *FaultPlan, rest string) error {
	at, idx, ok := strings.Cut(rest, "=")
	if !ok {
		return fmt.Errorf("want T=IDX")
	}
	t, err := atof(at)
	if err != nil {
		return err
	}
	i, err := strconv.Atoi(strings.TrimSpace(idx))
	if err != nil {
		return fmt.Errorf("robot index %q: %w", idx, err)
	}
	p.RobotFailures = append(p.RobotFailures, RobotFailure{At: t, Robot: i})
	return nil
}

func parseBurst(p *FaultPlan, rest string) error {
	window, prob, ok := strings.Cut(rest, "=")
	if !ok {
		return fmt.Errorf("want T1-T2=P")
	}
	from, to, err := parseWindow(window)
	if err != nil {
		return err
	}
	pr, err := atof(prob)
	if err != nil {
		return err
	}
	p.LossBursts = append(p.LossBursts, LossBurst{From: from, To: to, P: pr})
	return nil
}

func parseBlackout(p *FaultPlan, rest string) error {
	window, region, ok := strings.Cut(rest, "=")
	if !ok {
		return fmt.Errorf("want T1-T2=X,Y,R")
	}
	from, to, err := parseWindow(window)
	if err != nil {
		return err
	}
	parts := strings.Split(region, ",")
	if len(parts) != 3 {
		return fmt.Errorf("region %q: want X,Y,R", region)
	}
	x, err := atof(parts[0])
	if err != nil {
		return err
	}
	y, err := atof(parts[1])
	if err != nil {
		return err
	}
	r, err := atof(parts[2])
	if err != nil {
		return err
	}
	p.Blackouts = append(p.Blackouts, Blackout{From: from, To: to, Center: geom.Pt(x, y), Radius: r})
	return nil
}

func parseCorrupt(p *FaultPlan, rest string) error {
	window, spec, ok := strings.Cut(rest, "=")
	if !ok {
		return fmt.Errorf("want T1-T2=P[,mode]")
	}
	from, to, err := parseWindow(window)
	if err != nil {
		return err
	}
	prob, mode, hasMode := strings.Cut(spec, ",")
	pr, err := atof(prob)
	if err != nil {
		return err
	}
	mode = strings.TrimSpace(mode)
	if hasMode && mode == "" {
		return fmt.Errorf("empty corruption mode after comma")
	}
	if !corruptionModes[mode] {
		return fmt.Errorf("unknown corruption mode %q", mode)
	}
	p.Corruptions = append(p.Corruptions, Corruption{From: from, To: to, P: pr, Mode: mode})
	return nil
}

func parseDrain(p *FaultPlan, rest string) error {
	window, spec, ok := strings.Cut(rest, "=")
	if !ok {
		return fmt.Errorf("want T1-T2=F[,IDX]")
	}
	from, to, err := parseWindow(window)
	if err != nil {
		return err
	}
	frac, idx, hasIdx := strings.Cut(spec, ",")
	f, err := atof(frac)
	if err != nil {
		return err
	}
	robot := -1 // all robots unless an index follows
	if hasIdx {
		robot, err = strconv.Atoi(strings.TrimSpace(idx))
		if err != nil {
			return fmt.Errorf("robot index %q: %w", idx, err)
		}
		if robot < 0 {
			return fmt.Errorf("robot index %d: want >= 0 (omit the index to target all robots)", robot)
		}
	}
	p.Drains = append(p.Drains, Drain{From: from, To: to, Fraction: f, Robot: robot})
	return nil
}

func parseWindow(s string) (from, to float64, err error) {
	// Split at the first '-' that can belong to neither number: not a
	// leading sign, and not the exponent sign of scientific notation (the
	// plan renderer emits times like 1e-05, so "1e-05-3000" must split
	// before "3000", not inside the exponent).
	cut := -1
	for i := 1; i < len(s); i++ {
		if s[i] == '-' && s[i-1] != 'e' && s[i-1] != 'E' {
			cut = i
			break
		}
	}
	if cut < 0 {
		return 0, 0, fmt.Errorf("window %q: want T1-T2", s)
	}
	if from, err = atof(s[:cut]); err != nil {
		return 0, 0, err
	}
	if to, err = atof(s[cut+1:]); err != nil {
		return 0, 0, err
	}
	return from, to, nil
}

func atof(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("number %q: %w", s, err)
	}
	return v, nil
}

// LossInjector layers the plan's loss bursts over a base loss model: inside
// a burst window receptions drop with the burst's probability (drawn from
// the injector's own seeded stream, so burst draws never perturb the base
// model's stream); outside every window the base model decides alone.
// A nil base model behaves as lossless outside bursts.
type LossInjector struct {
	bursts []LossBurst
	base   radio.LossModel
	now    func() sim.Time
	rand   *rng.Source
}

// NewLossInjector builds an injector over base (may be nil) driven by the
// clock now, drawing burst losses from src.
func NewLossInjector(bursts []LossBurst, base radio.LossModel, now func() sim.Time, src *rng.Source) *LossInjector {
	return &LossInjector{bursts: bursts, base: base, now: now, rand: src}
}

// burstP returns the active burst probability, or ok=false outside every
// window. Overlapping windows resolve to the highest probability so a plan
// is order-independent.
func (l *LossInjector) burstP(now float64) (float64, bool) {
	p, active := 0.0, false
	for _, b := range l.bursts {
		if now >= b.From && now < b.To && b.P > p {
			p, active = b.P, true
		}
	}
	return p, active
}

// Drop implements radio.LossModel.
func (l *LossInjector) Drop(src, dst radio.NodeID) bool {
	if p, active := l.burstP(float64(l.now())); active {
		return l.rand.Float64() < p
	}
	if l.base == nil {
		return false
	}
	return l.base.Drop(src, dst)
}

// DropFrame implements radio.FrameLossModel, passing the full frame to a
// frame-aware base model outside burst windows.
func (l *LossInjector) DropFrame(f radio.Frame, dst radio.NodeID) bool {
	if p, active := l.burstP(float64(l.now())); active {
		return l.rand.Float64() < p
	}
	switch base := l.base.(type) {
	case nil:
		return false
	case radio.FrameLossModel:
		return base.DropFrame(f, dst)
	default:
		return base.Drop(f.Src, dst)
	}
}

var _ radio.FrameLossModel = (*LossInjector)(nil)

// RegionOutage implements radio.OutageModel from the plan's blackout
// windows: a position is silenced while any blackout covering it is open.
type RegionOutage struct {
	blackouts []Blackout
	now       func() sim.Time
}

// NewRegionOutage builds the outage model for the plan's blackouts driven
// by the clock now. It returns nil when there are no blackouts; callers
// should then leave radio.Config.Outage unset (a typed-nil interface value
// would still cost an interface call per delivery).
func NewRegionOutage(blackouts []Blackout, now func() sim.Time) *RegionOutage {
	if len(blackouts) == 0 {
		return nil
	}
	return &RegionOutage{blackouts: blackouts, now: now}
}

// Silenced implements radio.OutageModel. It is nil-safe: a nil outage
// silences nothing.
func (o *RegionOutage) Silenced(pos geom.Point) bool {
	if o == nil {
		return false
	}
	now := float64(o.now())
	for _, b := range o.blackouts {
		if now >= b.From && now < b.To && pos.Dist2(b.Center) <= b.Radius*b.Radius {
			return true
		}
	}
	return false
}
