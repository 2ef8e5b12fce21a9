package robot

import (
	"roborepair/internal/energy"
	"roborepair/internal/geom"
	"roborepair/internal/sim"
)

// BatteryParams configures the finite-energy extension for one robot. The
// zero value disables the layer entirely: no battery object is allocated
// and every battery hook reduces to one nil check, so battery-off runs
// stay bit-identical to builds that predate the layer.
type BatteryParams struct {
	// CapacityJ is the pack size in joules; > 0 enables the layer.
	CapacityJ float64
	// RechargeW is the depot charge rate in watts. 0 means no charger
	// exists: robots never decline work or detour, they spend the pack and
	// die in place (fleet starvation).
	RechargeW float64
	// ReserveJ is the safety margin the admission check keeps on top of a
	// mission's estimated cost (and the level a recharge detour aims to
	// arrive with).
	ReserveJ float64
	// Model supplies the idle and motion power draw.
	Model energy.Model
	// Depot is where robots recharge (the scenario layer points it at the
	// field's restocking depot).
	Depot geom.Point
}

// Enabled reports whether the battery layer is on.
func (b BatteryParams) Enabled() bool { return b.CapacityJ > 0 }

const (
	// batteryEpsJ is the exhaustion threshold: lazy accrual drains the
	// pack in float arithmetic, so "empty" is anything within a microjoule
	// of zero.
	batteryEpsJ = 1e-6
	// batteryFullFrac is the state of charge above which a robot considers
	// itself full and will not detour to top up (avoids zero-progress
	// recharge loops when a mission is simply too big for the pack).
	batteryFullFrac = 0.999
)

// currentPowerW is the instantaneous draw given the robot's motion state
// plus any adversarial drain window the chaos layer has opened.
func (r *Robot) currentPowerW() float64 {
	m := r.cfg.Battery.Model
	p := m.IdlePowerW
	if r.moving {
		p = m.MotionPowerW(r.cfg.Speed)
	}
	return p + r.extraDrainW
}

// accrueEnergy folds the interval since the last accrual into the ledger.
// Power is piecewise-constant between events, so calling this at every
// power-mode transition (motion start/stop, charge start/stop, drain
// window edges, death clock) integrates the draw exactly. Idempotent at a
// fixed instant.
func (r *Robot) accrueEnergy() {
	if r.bat == nil || r.died || r.failed {
		return
	}
	now := r.sched.Now()
	dt := float64(now.Sub(r.batAt))
	if dt <= 0 {
		return
	}
	r.batAt = now
	if r.charging {
		r.bat.Charge(r.cfg.Battery.RechargeW * dt)
		return
	}
	r.bat.Drain(r.currentPowerW() * dt)
}

// SettleEnergy folds lazily-accrued energy up to the current instant into
// the ledger. The scenario layer calls it at end of run before reading
// final ledgers; it is idempotent.
func (r *Robot) SettleEnergy() { r.accrueEnergy() }

// nearlyFull reports a state of charge above batteryFullFrac.
func (r *Robot) nearlyFull() bool {
	return r.bat.RemainingJ >= batteryFullFrac*r.bat.CapacityJ
}

// idleForRecharge reports whether the robot may abandon what it is doing
// for a depot detour: no task in hand or queued (relocation legs are
// preemptible and do not count).
func (r *Robot) idleForRecharge() bool {
	return r.current == nil && len(r.queue) == 0 && !r.rechargeLeg && !r.charging
}

// idleThresholdJ is the battery level at which an idle robot should head
// for the depot: enough to get there plus the configured reserve.
func (r *Robot) idleThresholdJ() float64 {
	bp := &r.cfg.Battery
	return bp.ReserveJ + bp.Model.MotionEnergyJ(r.Pos().Dist(bp.Depot), r.cfg.Speed)
}

// rearmDeathClock re-schedules the battery wake-up for the robot's current
// power mode: at the go-recharge threshold when idle with a charger
// available, otherwise at the predicted zero crossing. Called after every
// power-mode transition; cheap and tolerant of spurious firings (the
// clock handler re-validates).
func (r *Robot) rearmDeathClock() {
	if r.bat == nil || r.died || r.failed {
		return
	}
	r.sched.Cancel(r.deathEv)
	if r.charging {
		return
	}
	p := r.currentPowerW()
	if p <= 0 {
		return
	}
	target := 0.0
	if r.cfg.Battery.RechargeW > 0 && r.idleForRecharge() {
		if th := r.idleThresholdJ(); th < r.bat.RemainingJ || !r.nearlyFull() {
			target = th
		}
		// else: even a full pack cannot cover the depot trip; ride it down.
	}
	eta := (r.bat.RemainingJ - target) / p
	if eta < 0 {
		eta = 0
	}
	r.deathEv = r.sched.After(sim.Duration(eta), r.batteryClock)
}

// batteryClock fires when the pack is predicted to hit the current target
// level. It re-validates against the live ledger (power may have changed
// since arming), then either detours to recharge, dies in place, or
// re-arms.
func (r *Robot) batteryClock() {
	if r.bat == nil || r.died || r.failed || r.charging {
		return
	}
	r.accrueEnergy()
	if r.cfg.Battery.RechargeW > 0 && r.idleForRecharge() && !r.nearlyFull() &&
		r.bat.RemainingJ <= r.idleThresholdJ()+batteryEpsJ {
		r.goRecharge(nil)
		return
	}
	if r.bat.RemainingJ <= batteryEpsJ {
		r.dieInPlace()
		return
	}
	r.rearmDeathClock()
}

// dieInPlace is the battery's terminal state: the robot becomes a failed
// robot exactly where it stands, and the ordinary stranding/liveness
// machinery (OnFail, heartbeat timeouts, manager redispatch) absorbs it.
func (r *Robot) dieInPlace() {
	// Burn the float residue into the spent ledger so the conservation law
	// closes exactly: spent + remaining == capacity + recharged.
	r.bat.SpentJ += r.bat.RemainingJ
	r.bat.RemainingJ = 0
	r.died = true
	r.diedAt = r.sched.Now()
	r.FailNow()
	if r.hooks.OnBatteryDeath != nil {
		r.hooks.OnBatteryDeath(r)
	}
}

// missionEnergyJ estimates the energy to serve t from the robot's current
// position: travel (via the restock depot when out of cargo), the service
// stop, and the return leg to the charger. Adversarial drain windows are
// deliberately not modeled — they are surprises, and surviving a plan that
// was sound when admitted is exactly what the reserve is for.
func (r *Robot) missionEnergyJ(t Task) float64 {
	bp := &r.cfg.Battery
	v := r.cfg.Speed
	pos := r.Pos()
	var travel float64
	if r.cargo == 0 {
		travel = bp.Model.MotionEnergyJ(pos.Dist(r.cfg.Depot), v) +
			bp.Model.MotionEnergyJ(r.cfg.Depot.Dist(t.Loc), v)
	} else {
		travel = bp.Model.MotionEnergyJ(pos.Dist(t.Loc), v)
	}
	return travel + bp.Model.IdleEnergyJ(float64(r.cfg.ServiceTime)) +
		bp.Model.MotionEnergyJ(t.Loc.Dist(bp.Depot), v)
}

// declinesForRecharge is the admission rule: accept a task only if the
// pack covers the mission plus the reserve. Tasks no full pack could cover
// are accepted anyway (declining forever would serve nobody), as are
// tasks reaching an effectively full robot.
func (r *Robot) declinesForRecharge(t Task) bool {
	if r.bat == nil || r.cfg.Battery.RechargeW <= 0 || r.died || r.failed {
		return false
	}
	need := r.missionEnergyJ(t) + r.cfg.Battery.ReserveJ
	if r.bat.RemainingJ >= need {
		return false
	}
	if need > r.bat.CapacityJ || r.nearlyFull() {
		return false
	}
	return true
}

// goRecharge hands every held task back (declined is the task whose
// admission check tripped, nil on an idle-threshold detour) and starts the
// leg to the depot charger.
func (r *Robot) goRecharge(declined *Task) {
	r.interruptRelocation()
	var handed []Task
	if declined != nil {
		handed = append(handed, *declined)
	}
	handed = append(handed, r.queue...)
	r.queue = nil
	if r.seen != nil {
		for i := range handed {
			delete(r.seen, handed[i].Failed)
		}
	}
	// Flag first: a handed-off task that bounces straight back (no other
	// robot can take it) must queue for after the recharge, not re-enter
	// begin and decline again.
	r.rechargeLeg = true
	if len(handed) > 0 {
		r.handoffs += len(handed)
		if r.hooks.OnHandoff != nil {
			r.hooks.OnHandoff(r, handed)
		}
	}
	if r.failed || r.died {
		return
	}
	start := r.Pos()
	r.settle(start)
	depot := r.cfg.Battery.Depot
	dist := start.Dist(depot)
	if dist == 0 {
		r.startCharging()
		return
	}
	r.rechargeFrom = start
	r.dest = depot
	r.moving = true
	r.arriveEv = r.sched.After(sim.Duration(dist/r.cfg.Speed), r.rechargeArrive)
	r.scheduleUpdate()
	r.rearmDeathClock()
	r.publish() // load dropped to zero; let peers and the manager see it
}

// rechargeArrive completes the depot leg and plugs in.
func (r *Robot) rechargeArrive() {
	if !r.rechargeLeg || r.failed || r.died {
		return
	}
	r.sched.Cancel(r.updateEv)
	r.traveled += r.rechargeFrom.Dist(r.cfg.Battery.Depot)
	r.settle(r.cfg.Battery.Depot)
	r.publish()
	r.startCharging()
}

// startCharging parks the robot on the charger; while charging the depot
// powers the platform, so the pack only gains.
func (r *Robot) startCharging() {
	r.rechargeLeg = false
	r.accrueEnergy()
	r.charging = true
	r.sched.Cancel(r.deathEv)
	need := r.bat.CapacityJ - r.bat.RemainingJ
	w := r.cfg.Battery.RechargeW
	if need <= 0 || w <= 0 {
		r.finishCharging()
		return
	}
	r.chargeEv = r.sched.After(sim.Duration(need/w), r.chargeDone)
}

// chargeDone fires when the pack is predicted full.
func (r *Robot) chargeDone() {
	if !r.charging || r.failed || r.died {
		return
	}
	r.accrueEnergy() // credits ≈ the full top-up
	r.finishCharging()
}

// finishCharging leaves the pack exactly full and resumes any tasks that
// queued (or bounced back) during the detour.
func (r *Robot) finishCharging() {
	r.bat.Charge(r.bat.CapacityJ - r.bat.RemainingJ) // absorb the float residue
	r.charging = false
	r.batAt = r.sched.Now()
	r.recharges++
	if r.hooks.OnRecharge != nil {
		r.hooks.OnRecharge(r)
	}
	r.rearmDeathClock()
	if r.current == nil && len(r.queue) > 0 {
		r.begin(r.nextQueued())
	}
	r.publish()
}

// AddExtraDrainW adds (or, with a negative delta, removes) an adversarial
// parasitic load on the battery. The chaos layer opens a drain window by
// adding watts and closes it by subtracting the same amount. A no-op
// without a battery or after death.
func (r *Robot) AddExtraDrainW(delta float64) {
	if r.bat == nil || r.died || r.failed {
		return
	}
	r.accrueEnergy()
	r.extraDrainW += delta
	if r.extraDrainW < 0 {
		r.extraDrainW = 0
	}
	r.rearmDeathClock()
}

// Battery exposes the robot's energy ledger (nil when the battery layer
// is off). The scenario layer reads it for Results and the invariant
// checker's conservation law.
func (r *Robot) Battery() *energy.Battery { return r.bat }

// BatteryDied reports whether the robot died of battery exhaustion.
func (r *Robot) BatteryDied() bool { return r.died }

// DiedAt returns when the battery died (zero unless BatteryDied).
func (r *Robot) DiedAt() sim.Time { return r.diedAt }

// Recharges reports completed depot recharges.
func (r *Robot) Recharges() int { return r.recharges }

// Handoffs reports how many tasks this robot handed back on recharge
// detours.
func (r *Robot) Handoffs() int { return r.handoffs }

// BatteryRemainingJ returns the pack level at the current instant without
// mutating the ledger (the lazily-accrued state is interpolated forward).
// Zero when the layer is off.
func (r *Robot) BatteryRemainingJ() float64 {
	if r.bat == nil {
		return 0
	}
	if r.died {
		return 0
	}
	dt := float64(r.sched.Now().Sub(r.batAt))
	if dt <= 0 || r.failed {
		return r.bat.RemainingJ
	}
	if r.charging {
		v := r.bat.RemainingJ + r.cfg.Battery.RechargeW*dt
		if v > r.bat.CapacityJ {
			v = r.bat.CapacityJ
		}
		return v
	}
	v := r.bat.RemainingJ - r.currentPowerW()*dt
	if v < 0 {
		v = 0
	}
	return v
}
