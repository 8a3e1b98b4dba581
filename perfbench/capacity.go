package main

import "math"

// capacityLimitMs is the p99 latency limit a probe rate must hold to count
// toward capacity. It is loose on purpose: at 25 ms a single host stall
// decided the search and results spread ±14%.
const capacityLimitMs = 100

// searchPlan is the shape of the capacity search.
type searchPlan struct {
	start  float64 // first probe rate, requests per second
	step   float64 // ramp factor between probe rates (> 1)
	ramp   int     // most rates the ramp visits, up or down
	refine int     // geometric bisection steps after the ramp
}

// searchCapacity returns the highest rate that passes the probe. It ramps
// up from plan.start by plan.step until a rate fails (stepping down
// instead while the first rate fails), then bisects geometrically between
// the last passing and the first failing rate. A failed probe is retried
// once before the search steps down: one failure alone never ends the
// ramp, two at the same rate do. It visits at most ramp+refine rates, so it
// runs at most 2×(ramp+refine) probes. It returns 0 when no rate passed.
func searchCapacity(plan searchPlan, probe func(rate float64) bool) float64 {
	passes := func(rate float64) bool { return probe(rate) || probe(rate) }
	lo, hi := 0.0, 0.0
	if passes(plan.start) {
		lo = plan.start
		for i := 1; i < plan.ramp; i++ {
			r := lo * plan.step
			if !passes(r) {
				hi = r
				break
			}
			lo = r
		}
	} else {
		hi = plan.start
		for i := 1; i < plan.ramp; i++ {
			r := hi / plan.step
			if passes(r) {
				lo = r
				break
			}
			hi = r
		}
	}
	if lo == 0 || hi == 0 {
		return lo
	}
	for i := 0; i < plan.refine; i++ {
		mid := math.Sqrt(lo * hi)
		if passes(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// probePasses applies the capacity criteria to one probe phase: no request
// failed, the p99 latency is within the limit, and completions kept pace
// with arrivals — the requests still in flight when the arrivals stop are
// no more than the limit's worth of arrivals, so the backlog is not growing.
func probePasses(st phaseStats) bool {
	return st.failed == 0 && st.p99 <= capacityLimitMs &&
		float64(st.backlog) <= st.rate*capacityLimitMs/1000
}
