package sim

// Facility is a single server with an FCFS queue, modeled after CSIM's
// facility. Processes Reserve it, hold it for some service time, and
// Release it. The facility accumulates busy time so utilization can be
// reported at the end of a run.
type Facility struct {
	sim  *Simulator
	name string

	busy      bool
	holder    *Process
	waiters   []*waiter
	busySince Time

	// Statistics.
	BusyTime   Duration // total time the server was held
	Grants     int64    // number of successful reservations
	QueuedTime Duration // total time processes spent waiting
	MaxQueue   int      // high-water mark of the wait queue
}

type waiter struct {
	p       *Process
	arrived Time
}

// NewFacility creates an idle facility.
func NewFacility(s *Simulator, name string) *Facility {
	return &Facility{sim: s, name: name}
}

// Name returns the facility's name.
func (f *Facility) Name() string { return f.name }

// ResourceName implements Resource for deadlock diagnostics.
func (f *Facility) ResourceName() string { return "facility " + f.name }

// Holders implements Resource: the current holder, if any.
func (f *Facility) Holders() []*Process {
	if f.holder == nil {
		return nil
	}
	return []*Process{f.holder}
}

// Busy reports whether the server is currently held.
func (f *Facility) Busy() bool { return f.busy }

// QueueLen reports the number of processes waiting.
func (f *Facility) QueueLen() int { return len(f.waiters) }

// Reserve acquires the facility for process p, blocking p in FCFS order if
// the server is busy.
func (f *Facility) Reserve(p *Process) {
	if !f.busy {
		f.grant(p)
		return
	}
	w := &waiter{p: p, arrived: f.sim.now}
	f.waiters = append(f.waiters, w)
	if len(f.waiters) > f.MaxQueue {
		f.MaxQueue = len(f.waiters)
	}
	p.SuspendOn(f)
	// Control returns here once grant() has woken us; bookkeeping was
	// done by the releaser.
}

// TryReserve acquires the facility if it is idle, without blocking.
func (f *Facility) TryReserve(p *Process) bool {
	if f.busy {
		return false
	}
	f.grant(p)
	return true
}

func (f *Facility) grant(p *Process) {
	f.busy = true
	f.holder = p
	f.busySince = f.sim.now
	f.Grants++
}

// Release frees the facility and hands it to the head of the queue, if any.
// Only the holder may release.
func (f *Facility) Release(p *Process) {
	if !f.busy || f.holder != p {
		panic("sim: Release by non-holder of facility " + f.name)
	}
	f.BusyTime += Duration(f.sim.now - f.busySince)
	f.busy = false
	f.holder = nil
	if len(f.waiters) > 0 {
		w := f.waiters[0]
		f.waiters = f.waiters[1:]
		f.QueuedTime += Duration(f.sim.now - w.arrived)
		f.grant(w.p)
		WakerFor(w.p).Wake()
	}
}

// Utilization returns the fraction of [0, Now()] the server was busy. If the
// facility is still held, the current holding interval is included.
func (f *Facility) Utilization() float64 {
	if f.sim.now == 0 {
		return 0
	}
	busy := f.BusyTime
	if f.busy {
		busy += Duration(f.sim.now - f.busySince)
	}
	return float64(busy) / float64(f.sim.now)
}

// Semaphore is a counting semaphore for processes.
type Semaphore struct {
	sim     *Simulator
	count   int
	waiters []*Process
}

// NewSemaphore creates a semaphore with the given initial count.
func NewSemaphore(s *Simulator, count int) *Semaphore {
	return &Semaphore{sim: s, count: count}
}

// ResourceName implements Resource for deadlock diagnostics.
func (sem *Semaphore) ResourceName() string { return "semaphore" }

// Holders implements Resource. A counting semaphore has no identifiable
// holder, so the wait-for graph gains no edge here.
func (sem *Semaphore) Holders() []*Process { return nil }

// Acquire decrements the count, blocking the process while the count is zero.
func (sem *Semaphore) Acquire(p *Process) {
	if sem.count > 0 {
		sem.count--
		return
	}
	sem.waiters = append(sem.waiters, p)
	p.SuspendOn(sem)
}

// Release increments the count, waking the longest-waiting process if any.
func (sem *Semaphore) Release() {
	if len(sem.waiters) > 0 {
		p := sem.waiters[0]
		sem.waiters = sem.waiters[1:]
		WakerFor(p).Wake()
		return
	}
	sem.count++
}

// Mailbox is an unbounded FIFO of items that processes can block on, in the
// style of CSIM mailboxes.
type Mailbox struct {
	sim     *Simulator
	items   []any
	waiters []*Process
}

// NewMailbox creates an empty mailbox.
func NewMailbox(s *Simulator) *Mailbox {
	return &Mailbox{sim: s}
}

// ResourceName implements Resource for deadlock diagnostics.
func (m *Mailbox) ResourceName() string { return "mailbox" }

// Holders implements Resource: no specific process holds an empty mailbox.
func (m *Mailbox) Holders() []*Process { return nil }

// Len reports the number of queued items.
func (m *Mailbox) Len() int { return len(m.items) }

// Put deposits an item, waking the longest-waiting receiver if any. Put may
// be called from kernel context or a process.
func (m *Mailbox) Put(item any) {
	m.items = append(m.items, item)
	if len(m.waiters) > 0 {
		p := m.waiters[0]
		m.waiters = m.waiters[1:]
		WakerFor(p).Wake()
	}
}

// Get removes and returns the oldest item, blocking the process while the
// mailbox is empty.
//
//lint:allow ctxflow blocks in simulated time via SuspendOn, not host time; the deadlock watchdog, not a ctx, bounds it
func (m *Mailbox) Get(p *Process) any {
	for len(m.items) == 0 {
		m.waiters = append(m.waiters, p)
		p.SuspendOn(m)
	}
	item := m.items[0]
	m.items = m.items[1:]
	return item
}
