package sched

import (
	"vessel/internal/sim"
	"vessel/internal/workload"
)

// CtrlPlane is the single FIFO control-plane server every L-app arrival
// crosses before the scheduler acts on it: VESSEL's domain scheduler and
// Caladan's IOKernel. Each request occupies the server for a fixed cost,
// so near saturation a backlog builds and the server caps core
// scalability (Figure 12).
type CtrlPlane struct {
	eng  *sim.Engine
	cost sim.Duration
	free sim.Time // when the server clears its backlog
}

// NewCtrlPlane returns a server charging cost per request.
func NewCtrlPlane(eng *sim.Engine, cost sim.Duration) *CtrlPlane {
	return &CtrlPlane{eng: eng, cost: cost}
}

// CtrlLane is one app's path through a CtrlPlane. The server is FIFO and
// its free time never decreases, so the app's requests leave in the order
// they entered: the lane is a sim.Stream of them, which keeps one heap
// slot however deep the backlog and costs no allocation per request.
type CtrlLane struct {
	cp  *CtrlPlane
	app *workload.App
	out *sim.Stream[*workload.Request]
}

// Lane returns app's lane. deliver runs when the server forwards a
// request, after the request is back in the app's queue.
func (cp *CtrlPlane) Lane(app *workload.App, deliver func(*workload.Request)) *CtrlLane {
	return &CtrlLane{cp: cp, app: app, out: sim.NewStream(cp.eng, func(req *workload.Request) {
		if req != nil {
			app.Requeue(req)
		}
		deliver(req)
	})}
}

// Submit takes the request the arrival process just queued (the app's
// newest) out of the queue until the server has processed it: from when
// the server is next free, plus its cost.
func (l *CtrlLane) Submit() {
	cp := l.cp
	start := max(cp.eng.Now(), cp.free)
	cp.free = start.Add(cp.cost)
	l.out.Push(cp.free, l.app.StealNewest())
}
