package sim

import "sais/internal/units"

// Server models a resource that serves one job at a time in FIFO order:
// a NIC serializing bytes onto a wire, a disk head, a core executing
// softirq work. Submitting a job while the server is busy queues it.
//
// The service time of each job is fixed at submission, which is the
// right model for store-and-forward hardware; a job whose cost depends
// on state at dispatch computes it from Drain, the instant it will
// start.
//
// Each job schedules exactly one engine event, at its finish time,
// through one callback bound at construction; the job's done callback
// waits in a per-server FIFO. Finish times never decrease in submission
// order, and the engine fires equal-time events in scheduling order, so
// the FIFO front is always the job whose event is firing.
type Server struct {
	eng      *Engine
	complete Event // s.finish, bound once
	dones    Ring[Event]
	busyTo   units.Time
	queue    int
	maxQ     int
	busy     units.Time // accumulated busy time
	served   uint64
	waited   units.Time // accumulated queueing delay
	nameTag  string
}

// NewServer returns an idle FIFO server bound to eng. name is used only
// for diagnostics.
func NewServer(eng *Engine, name string) *Server {
	s := &Server{eng: eng, nameTag: name}
	s.complete = s.finish
	return s
}

// Name returns the diagnostic name.
func (s *Server) Name() string { return s.nameTag }

// Busy reports whether the server is serving or has queued work.
func (s *Server) Busy() bool { return s.eng.Now() < s.busyTo }

// QueueLen returns the number of jobs submitted but not yet started,
// including the one in service.
func (s *Server) QueueLen() int { return s.queue }

// MaxQueue returns the high-water mark of QueueLen.
func (s *Server) MaxQueue() int { return s.maxQ }

// BusyTime returns total time spent serving jobs.
func (s *Server) BusyTime() units.Time { return s.busy }

// WaitTime returns total time jobs spent queued before service began.
func (s *Server) WaitTime() units.Time { return s.waited }

// Served returns the number of completed jobs.
func (s *Server) Served() uint64 { return s.served }

// Submit enqueues a job taking cost time; done (optional) runs when the
// job completes. It returns the completion time.
//
//saisvet:allocfree
func (s *Server) Submit(cost units.Time, done Event) units.Time {
	now := s.eng.Now()
	start := s.Drain()
	s.queue++
	if s.queue > s.maxQ {
		s.maxQ = s.queue
	}
	if cost < 0 {
		cost = 0
	}
	finish := start + cost
	s.busyTo = finish
	s.busy += cost
	s.waited += start - now
	s.dones.PushBack(done)
	s.eng.At(finish, s.complete)
	return finish
}

// finish completes the oldest job.
//
//saisvet:allocfree
func (s *Server) finish(now units.Time) {
	s.queue--
	s.served++
	if done := s.dones.PopFront(); done != nil {
		//lint:alloc job-completion callback: its allocations belong to the submitter's budget
		done(now)
	}
}

// Drain returns the time at which all currently queued work completes,
// which is when a job submitted now would start.
//
//saisvet:allocfree
func (s *Server) Drain() units.Time {
	if s.busyTo < s.eng.Now() {
		return s.eng.Now()
	}
	return s.busyTo
}
