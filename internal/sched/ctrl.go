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

// CtrlLane is one app's path through a CtrlPlane. The server is FIFO, so
// the app's requests leave in the order they entered: the lane keeps them
// in a FIFO and every delivery runs the same pre-bound callback, so a
// request in flight costs no allocation.
type CtrlLane struct {
	cp       *CtrlPlane
	app      *workload.App
	inflight []*workload.Request
	head     int
	fire     func()
}

// Lane returns app's lane. deliver runs when the server forwards a
// request, after the request is back in the app's queue.
func (cp *CtrlPlane) Lane(app *workload.App, deliver func(*workload.Request)) *CtrlLane {
	l := &CtrlLane{cp: cp, app: app}
	l.fire = func() {
		req := l.pop()
		if req != nil {
			app.Requeue(req)
		}
		deliver(req)
	}
	return l
}

// Submit takes the request the arrival process just queued (the app's
// newest) out of the queue until the server has processed it: from when
// the server is next free, plus its cost.
func (l *CtrlLane) Submit() {
	cp := l.cp
	l.inflight = append(l.inflight, l.app.StealNewest())
	start := max(cp.eng.Now(), cp.free)
	cp.free = start.Add(cp.cost)
	cp.eng.At(cp.free, l.fire)
}

// pop removes the oldest in-flight request. The live tail slides down
// once at least half the slice is consumed, so the slice stays bounded
// by the lane's peak depth.
func (l *CtrlLane) pop() *workload.Request {
	req := l.inflight[l.head]
	l.inflight[l.head] = nil
	l.head++
	if 2*l.head >= len(l.inflight) {
		n := copy(l.inflight, l.inflight[l.head:])
		clear(l.inflight[n:])
		l.inflight = l.inflight[:n]
		l.head = 0
	}
	return req
}
