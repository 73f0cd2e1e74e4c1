// Package plan contains the query-optimizer-as-AnyComponent: behaviors
// that turn a query into an instrumented event/data-stream program —
// operator placement (aggregated vs disaggregated), stream wiring, and
// the data-beaming schedule of §4. The paper's key observation is that
// the tables a query touches are known before optimization finishes, so
// their data streams can be initiated at query arrival and push data
// while the optimizer still "compiles" — hiding transfer latency behind
// compile time.
package plan

import (
	"fmt"

	"anydb/internal/core"
)

// BeamMode selects which of the query's base-table streams are initiated
// at query arrival (beamed) versus at compile completion.
type BeamMode uint8

const (
	// BeamNone pulls all data only when execution starts (baseline).
	BeamNone BeamMode = iota
	// BeamBuild beams the join build side: the scan of the first table
	// in the join chain.
	BeamBuild
	// BeamAll beams build and probe sides (every scan).
	BeamAll
)

var beamNames = [...]string{"none", "build", "build+probe"}

func (m BeamMode) String() string {
	if int(m) < len(beamNames) {
		return beamNames[m]
	}
	return fmt.Sprintf("BeamMode(%d)", uint8(m))
}

// QO is the query-optimizer behavior: register for EvQuery on any AC.
// Receiving a *GenericPlan it (1) immediately initiates the beamed data
// streams, (2) charges the compile time, (3) emits the remaining
// operator installation events. Which architecture the query perceives
// — aggregated or disaggregated — is entirely decided by the ACs named
// in the plan.
type QO struct {
	Topo *core.Topology
}

// OnEvent implements core.Behavior for EvQuery.
func (q *QO) OnEvent(ctx core.Context, _ *core.AC, ev *core.Event) {
	// The EvQuery envelope dies here (the plan payload lives on in the
	// emitted install events); freeing keeps the pool balance exact.
	defer core.FreeEvent(ev)
	gp, ok := ev.Payload.(*GenericPlan)
	if !ok {
		panic(fmt.Sprintf("plan: EvQuery payload must be *GenericPlan, got %T", ev.Payload))
	}
	q.emit(ctx, gp)
}
