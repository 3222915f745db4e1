package uarch

import (
	"fmt"
	"math/bits"

	"livepoints/internal/bpred"
	"livepoints/internal/cache"
	"livepoints/internal/functional"
	"livepoints/internal/isa"
	"livepoints/internal/mem"
)

// Stats accumulates detailed-simulation event counts.
type Stats struct {
	Cycles    uint64
	Committed uint64

	Dispatched    uint64
	WrongPathDisp uint64
	Recoveries    uint64 // correct-path branch mispredictions

	// Live-state approximation events (§5 of the paper): wrong-path
	// fetches from unavailable text and wrong-path loads of unavailable
	// memory words. CorrectPathUnknownLoads must be zero for full
	// live-state; non-zero values indicate capture bugs or, for
	// restricted live-state experiments, the expected approximation.
	UnknownFetches            uint64
	UnknownLoads              uint64
	CorrectPathUnknownLoads   uint64
	CorrectPathUnknownFetches uint64
}

// CPI returns cycles per committed instruction.
func (s Stats) CPI() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Committed)
}

// entry is one RUU (unified ROB/reservation-station) slot.
type entry struct {
	seq   uint64
	valid bool

	pc           uint64
	inst         isa.Inst
	wrongPath    bool
	unknownFetch bool

	issued    bool
	completed bool
	doneAt    uint64

	// npend counts this entry's producers that have not completed; the
	// entry is operand-ready when it reaches zero. nedge counts the wakeup
	// edges it has taken from its slot's edge block. waiters heads the
	// list of consumer edges waiting on this entry (edge index + 1; 0 is
	// the empty list), newest first.
	npend   uint8
	nedge   uint8
	waiters int32

	isLoad   bool
	isStore  bool
	memAddr  uint64
	fwdStore bool

	isBranch  bool
	predNext  uint64 // predicted next pc (sentinel badPC when unknown)
	actTaken  bool
	actNext   uint64
	doRecover bool
	bpSave    bpred.SpecLite

	writesReg bool
	rdVal     uint64
	memVal    uint64
}

// badPC is the sentinel "unknown predicted target".
const badPC = ^uint64(0)

// edgesPerSlot is the number of wakeup edges one consumer can take: two
// source registers and one forwarding store.
const edgesPerSlot = 3

// event is one scheduled completion: the entry issued as seq finishes at
// doneAt. Events of squashed or recycled slots stay in the heap and are
// dropped lazily when they reach its top.
type event struct{ doneAt, seq uint64 }

// fetchRec is one fetched instruction waiting in the fetch queue.
type fetchRec struct {
	pc        uint64
	inst      isa.Inst
	unknown   bool
	isBranch  bool
	predNext  uint64
	bpSave    bpred.SpecLite
	fetchedAt uint64
}

// Core is one instantiated detailed out-of-order processor.
//
// The core maintains two architectural contexts. The dispatch context
// executes instructions speculatively, in fetched order (including wrong
// paths), against a copy-on-write memory overlay. The commit context
// re-executes instructions in program order at retirement against the real
// window memory; it is the authoritative architectural state, and must
// match pure functional simulation instruction-for-instruction (the
// handoff invariant tested in internal/warm).
type Core struct {
	cfg  Config
	text functional.TextSource
	hier *cache.Hier
	bp   *bpred.Predictor

	commit    functional.State
	commitMem functional.MemRW

	disp    functional.State
	dispMem *mem.Overlay

	// The RUU is a ring of a power-of-two number of slots, at least 64 and
	// at least cfg.RUUSize; cfg.RUUSize alone bounds occupancy.
	ruu       []entry
	mask      uint64
	headSeq   uint64
	tailSeq   uint64
	lsqCount  int
	createVec [isa.NumRegs]int64

	// Scheduler state. ready has one bit per RUU slot, set while the slot
	// holds a valid, unissued, operand-ready entry. events is a min-heap
	// on doneAt of issued entries. edgeNext links the wakeup edges:
	// edgesPerSlot per RUU slot, each the next edge index + 1 (0 ends the
	// list); an edge's consumer is its index / edgesPerSlot.
	ready    []uint64
	events   []event
	edgeNext []int32

	fetchPC       uint64
	fetchReadyAt  uint64
	fetchHold     bool
	ifq           []fetchRec // ring of cfg.IFQSize records
	ifqHead       int
	ifqLen        int
	lastFetchLine uint64
	specMode      bool

	fuBusy [isa.NumClasses][]uint64

	cycle           uint64
	halted          bool
	lastCommitCycle uint64

	Stat Stats
}

// NewCore builds a core over the given text, memory and pre-warmed
// microarchitectural structures. arch is the architectural starting state
// (registers and PC); commitMem receives committed stores. The hierarchy's
// transient cycle-domain state is reset; its cache/TLB contents are kept.
func NewCore(cfg Config, text functional.TextSource, commitMem functional.MemRW,
	arch functional.State, h *cache.Hier, bp *bpred.Predictor) *Core {
	c := new(Core)
	c.Reset(cfg, text, commitMem, arch, h, bp)
	return c
}

// Reset reinitializes c to the state NewCore would build from the same
// arguments, reusing its RUU ring, scheduler, fetch queue, functional-unit
// and dispatch-overlay storage where the sizes allow. A reset core is
// indistinguishable from a fresh one.
func (c *Core) Reset(cfg Config, text functional.TextSource, commitMem functional.MemRW,
	arch functional.State, h *cache.Hier, bp *bpred.Predictor) {
	ring := 64
	for ring < cfg.RUUSize {
		ring <<= 1
	}
	dispMem := c.dispMem
	if dispMem == nil {
		dispMem = mem.NewOverlay(commitMem)
	} else {
		dispMem.Rebind(commitMem)
	}
	fuBusy := c.fuBusy
	fuBusy[isa.ClassIntALU] = resize(fuBusy[isa.ClassIntALU], cfg.IntALU)
	fuBusy[isa.ClassIntMul] = resize(fuBusy[isa.ClassIntMul], cfg.IntMul)
	fuBusy[isa.ClassFPALU] = resize(fuBusy[isa.ClassFPALU], cfg.FPALU)
	fuBusy[isa.ClassFPMul] = resize(fuBusy[isa.ClassFPMul], cfg.FPMul)
	*c = Core{
		cfg:           cfg,
		text:          text,
		hier:          h,
		bp:            bp,
		commit:        arch,
		commitMem:     commitMem,
		disp:          arch,
		dispMem:       dispMem,
		ruu:           resize(c.ruu, ring),
		mask:          uint64(ring - 1),
		ready:         resize(c.ready, ring/64),
		events:        c.events[:0],
		edgeNext:      resize(c.edgeNext, ring*edgesPerSlot),
		fetchPC:       arch.PC,
		lastFetchLine: badPC,
		ifq:           resize(c.ifq, cfg.IFQSize),
		fuBusy:        fuBusy,
	}
	for i := range c.createVec {
		c.createVec[i] = -1
	}
	h.ResetTransients()
}

// resize returns s resliced to n zeroed elements, allocating only when its
// capacity falls short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// CommittedState returns the committed architectural state.
func (c *Core) CommittedState() functional.State { return c.commit }

// Cycle returns the current cycle count.
func (c *Core) Cycle() uint64 { return c.cycle }

// Halted reports whether a correct-path halt instruction committed.
func (c *Core) Halted() bool { return c.halted }

func (c *Core) slot(seq uint64) *entry { return &c.ruu[seq&c.mask] }

func (c *Core) setReady(i uint64)   { c.ready[i>>6] |= 1 << (i & 63) }
func (c *Core) clearReady(i uint64) { c.ready[i>>6] &^= 1 << (i & 63) }

// dependOn makes the consumer in RUU slot ci wait on producer seq when
// that producer is still in flight and incomplete, linking a wakeup edge
// onto the head of the producer's waiter list.
func (c *Core) dependOn(seq, ci uint64) {
	p := c.slot(seq)
	if !p.valid || p.seq != seq || p.completed {
		return
	}
	e := &c.ruu[ci]
	edge := ci*edgesPerSlot + uint64(e.nedge)
	e.nedge++
	e.npend++
	c.edgeNext[edge] = p.waiters
	p.waiters = int32(edge + 1)
}

// complete marks p completed and wakes the consumers waiting on it.
func (c *Core) complete(p *entry) {
	p.completed = true
	for w := p.waiters; w != 0; w = c.edgeNext[w-1] {
		ci := uint64(w-1) / edgesPerSlot
		e := &c.ruu[ci]
		e.npend--
		if e.npend == 0 {
			c.setReady(ci)
		}
	}
	p.waiters = 0
}

// inFlight reports whether ev still describes e: the entry it was
// scheduled for, issued and not yet completed. Anything else is a stale
// event of a squashed or recycled slot.
func inFlight(e *entry, ev event) bool {
	return e.valid && e.seq == ev.seq && e.issued && !e.completed && e.doneAt == ev.doneAt
}

func (c *Core) pushEvent(ev event) {
	h := append(c.events, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].doneAt <= ev.doneAt {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	c.events = h
}

func (c *Core) popEvent() {
	h := c.events
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r].doneAt < h[l].doneAt {
			l = r
		}
		if last.doneAt <= h[l].doneAt {
			break
		}
		h[i] = h[l]
		i = l
	}
	if n > 0 {
		h[i] = last
	}
	c.events = h
}

// noEventSkip disables skipToNextEvent so tests can step every cycle and
// compare against the skipping run.
var noEventSkip bool

// Run simulates until n more instructions commit or the program halts,
// returning the number committed during this call. The cycle counter and
// all pipeline state carry over across calls, so warming and measurement
// phases observe a continuously live pipeline.
//
// Scheduling is event-driven: writeback pops due completions from a heap,
// completions wake only their own consumers, and issue scans a bitmap of
// ready entries, so no stage walks the whole RUU in the common case.
// Cycles in which no stage can make progress (long memory stalls) are
// skipped to the next scheduled event; the resulting timing is identical
// to stepping cycle by cycle because every wake-up in the model is
// time-driven.
func (c *Core) Run(n uint64) uint64 {
	target := c.Stat.Committed + n
	for c.Stat.Committed < target && !c.halted {
		c.cycle++
		active := 0
		before := c.Stat.Committed
		c.stageCommit(target)
		active += int(c.Stat.Committed - before)
		active += c.stageWriteback()
		active += c.stageIssue()
		active += c.stageDispatch()
		active += c.stageFetch()
		if active == 0 && !noEventSkip {
			c.skipToNextEvent()
		}
		if c.cycle-c.lastCommitCycle > 1<<21 {
			panic(fmt.Sprintf("uarch: no commit progress for %d cycles at cycle %d (pc=%d, head=%d tail=%d)",
				c.cycle-c.lastCommitCycle, c.cycle, c.commit.PC, c.headSeq, c.tailSeq))
		}
	}
	c.Stat.Cycles = c.cycle
	return c.Stat.Committed - (target - n)
}

// skipToNextEvent advances the cycle counter to just before the earliest
// time-driven wake-up: the completion at the top of the event heap (after
// dropping stale events), the fetch restart time, or a functional unit
// becoming free. Panics if the pipeline is provably deadlocked (no pending
// event at all).
func (c *Core) skipToNextEvent() {
	next := badPC
	for len(c.events) > 0 {
		if ev := c.events[0]; inFlight(c.slot(ev.seq), ev) {
			next = ev.doneAt
			break
		}
		c.popEvent()
	}
	if !c.fetchHold && c.fetchReadyAt > c.cycle && c.fetchReadyAt < next {
		next = c.fetchReadyAt
	}
	for cl := range c.fuBusy {
		for _, busy := range c.fuBusy[cl] {
			if busy > c.cycle && busy < next {
				next = busy
			}
		}
	}
	if next == badPC {
		panic(fmt.Sprintf("uarch: pipeline deadlock at cycle %d (pc=%d, head=%d tail=%d, ifq=%d, hold=%v)",
			c.cycle, c.commit.PC, c.headSeq, c.tailSeq, c.ifqLen, c.fetchHold))
	}
	if next > c.cycle+1 {
		c.cycle = next - 1
	}
}

// --- Commit ---------------------------------------------------------------

func (c *Core) stageCommit(target uint64) {
	for commits := 0; commits < c.cfg.CommitWidth && c.Stat.Committed < target; commits++ {
		if c.headSeq == c.tailSeq {
			return
		}
		e := c.slot(c.headSeq)
		if !e.valid || !e.completed {
			return
		}
		if e.wrongPath {
			// Wrong-path entries are squashed at recovery before the
			// mispredicted branch can commit; reaching here is a bug.
			panic(fmt.Sprintf("uarch: wrong-path entry at commit (seq %d, pc %d)", e.seq, e.pc))
		}
		if c.commit.PC != e.pc {
			panic(fmt.Sprintf("uarch: commit pc skew: committed state at %d, entry at %d", c.commit.PC, e.pc))
		}
		if e.unknownFetch {
			// A committed placeholder means correct-path text was missing
			// from the image — a live-state capture bug, surfaced as a
			// counter so experiments can assert on it.
			c.Stat.CorrectPathUnknownFetches++
		}
		res := functional.Exec(&c.commit, e.inst, c.commitMem)
		if res.Halt {
			c.halted = true
			c.retireHead(e)
			c.Stat.Committed++
			c.lastCommitCycle = c.cycle
			return
		}
		c.commit.PC = res.NextPC
		c.commit.InstRet++
		if e.isStore {
			stall := c.hier.CommitStore(e.memAddr, c.cycle)
			c.retireHead(e)
			c.Stat.Committed++
			c.lastCommitCycle = c.cycle
			if stall > 0 {
				return // store buffer full: commit stops this cycle
			}
			continue
		}
		if e.isBranch {
			c.bp.Update(isa.PCToAddr(e.pc), e.inst, e.actTaken, isa.PCToAddr(e.actNext))
		}
		c.retireHead(e)
		c.Stat.Committed++
		c.lastCommitCycle = c.cycle
	}
}

func (c *Core) retireHead(e *entry) {
	if e.isLoad || e.isStore {
		c.lsqCount--
	}
	e.valid = false
	c.headSeq++
	// Periodically compact the dispatch overlay so long correct-path runs
	// (golden full-benchmark simulations) do not accumulate an unbounded
	// shadow of committed stores.
	if c.Stat.Committed&0xffff == 0xffff {
		c.rebuildDispatchMemory()
	}
}

// --- Writeback / recovery ---------------------------------------------------

func (c *Core) stageWriteback() int {
	done := 0
	var br *entry
	for len(c.events) > 0 && c.events[0].doneAt <= c.cycle {
		ev := c.events[0]
		c.popEvent()
		e := c.slot(ev.seq)
		if !inFlight(e, ev) {
			continue
		}
		c.complete(e)
		done++
		if e.doRecover {
			// At most one mispredicted correct-path branch is in flight:
			// dispatch enters wrong-path mode at the first one.
			br = e
		}
	}
	if br != nil {
		// Entries younger than br completed above are squashed here, as
		// if they had never completed.
		c.recover(br)
	}
	return done
}

// recover squashes all entries younger than the mispredicted branch e,
// restores the dispatch context and predictor speculative state, and
// redirects fetch to the branch's actual target.
func (c *Core) recover(e *entry) {
	c.Stat.Recoveries++
	for s := e.seq + 1; s != c.tailSeq; s++ {
		y := c.slot(s)
		if y.valid {
			if y.isLoad || y.isStore {
				c.lsqCount--
			}
			y.valid = false
		}
		c.clearReady(s & c.mask)
	}
	c.tailSeq = e.seq + 1

	// Rebuild the register rename view from surviving entries, and drop
	// squashed consumers from the surviving producers' waiter lists.
	// Consumers are younger than their producers and lists are newest
	// first, so the squashed ones form each list's head.
	for i := range c.createVec {
		c.createVec[i] = -1
	}
	for s := c.headSeq; s != c.tailSeq; s++ {
		y := c.slot(s)
		if !y.valid {
			continue
		}
		if y.writesReg {
			c.createVec[y.inst.Rd] = int64(y.seq)
		}
		for y.waiters != 0 && !c.ruu[uint64(y.waiters-1)/edgesPerSlot].valid {
			y.waiters = c.edgeNext[y.waiters-1]
		}
	}

	// Rebuild the dispatch context: committed state plus the effects of
	// surviving in-flight instructions.
	c.disp.Regs = c.commit.Regs
	c.rebuildDispatchMemory()
	for s := c.headSeq; s != c.tailSeq; s++ {
		y := c.slot(s)
		if y.valid && y.writesReg {
			c.disp.SetReg(y.inst.Rd, y.rdVal)
		}
	}

	c.bp.RestoreLite(e.bpSave)
	c.bp.ApplyOutcome(isa.PCToAddr(e.pc), e.inst, e.actTaken)

	c.fetchPC = e.actNext
	c.fetchReadyAt = c.cycle + uint64(c.cfg.BranchPenalty)
	c.fetchHold = false
	c.ifqHead = 0
	c.ifqLen = 0
	c.lastFetchLine = badPC
	c.specMode = false
	e.doRecover = false
}

// rebuildDispatchMemory resets the dispatch overlay to the committed memory
// plus all surviving in-flight stores.
func (c *Core) rebuildDispatchMemory() {
	c.dispMem.Reset()
	for s := c.headSeq; s != c.tailSeq; s++ {
		y := c.slot(s)
		if y.valid && y.isStore {
			c.dispMem.WriteWord(y.memAddr, y.memVal)
		}
	}
}

// --- Issue ------------------------------------------------------------------

// stageIssue issues up to IssueWidth ready entries, oldest first: it walks
// the ready bitmap in ring order from the head's slot, visiting the head's
// word first for its bits at and above the head and last for those below.
func (c *Core) stageIssue() int {
	issued := 0
	portsUsed := 0
	head := c.headSeq & c.mask
	nw := uint64(len(c.ready))
	for k := uint64(0); k <= nw && issued < c.cfg.IssueWidth; k++ {
		wi := (head>>6 + k) & (nw - 1)
		w := c.ready[wi]
		switch k {
		case 0:
			w &= ^uint64(0) << (head & 63)
		case nw:
			w &= 1<<(head&63) - 1
		}
		for ; w != 0 && issued < c.cfg.IssueWidth; w &= w - 1 {
			i := wi<<6 | uint64(bits.TrailingZeros64(w))
			e := &c.ruu[i]
			li := opLat[e.inst.Op]
			switch {
			case e.isLoad && e.fwdStore:
				// Store-to-load forwarding: one cycle after data is ready.
				e.doneAt = c.cycle + 1
			case e.isLoad:
				if portsUsed >= c.cfg.MemPorts {
					continue
				}
				portsUsed++
				e.doneAt = c.hier.Load(e.memAddr, c.cycle)
			case e.isStore:
				if portsUsed >= c.cfg.MemPorts {
					continue
				}
				portsUsed++
				e.doneAt = c.hier.StoreAddr(e.memAddr, c.cycle)
			case li.class == isa.ClassNone:
				e.doneAt = c.cycle + 1
			default:
				fu := c.fuBusy[li.class]
				unit := -1
				for u := range fu {
					if fu[u] <= c.cycle {
						unit = u
						break
					}
				}
				if unit < 0 {
					continue
				}
				fu[unit] = c.cycle + uint64(li.interval)
				e.doneAt = c.cycle + uint64(li.latency)
			}
			e.issued = true
			c.clearReady(i)
			c.pushEvent(event{e.doneAt, e.seq})
			issued++
		}
	}
	return issued
}

// --- Dispatch ----------------------------------------------------------------

func (c *Core) stageDispatch() int {
	dispatched := 0
	for n := 0; n < c.cfg.DecodeWidth; n++ {
		if c.ifqLen == 0 {
			return dispatched
		}
		rec := &c.ifq[c.ifqHead]
		if rec.fetchedAt >= c.cycle {
			return dispatched // 1-cycle fetch-to-dispatch latency
		}
		if c.tailSeq-c.headSeq >= uint64(c.cfg.RUUSize) {
			return dispatched // RUU full
		}
		isMem := rec.inst.Op.IsMem()
		if isMem && c.lsqCount >= c.cfg.LSQSize {
			return dispatched // LSQ full
		}
		dispatched++

		seq := c.tailSeq
		c.tailSeq++
		ci := seq & c.mask
		e := &c.ruu[ci]
		*e = entry{
			seq:          seq,
			valid:        true,
			pc:           rec.pc,
			inst:         rec.inst,
			wrongPath:    c.specMode,
			unknownFetch: rec.unknown,
			isBranch:     rec.isBranch,
			predNext:     rec.predNext,
			bpSave:       rec.bpSave,
		}
		c.ifqHead++
		if c.ifqHead == len(c.ifq) {
			c.ifqHead = 0
		}
		c.ifqLen--
		c.Stat.Dispatched++
		if c.specMode {
			c.Stat.WrongPathDisp++
		}

		// Register dependences.
		var srcs [2]uint8
		for _, r := range rec.inst.SrcRegs(srcs[:0]) {
			if r == isa.RegZero {
				continue
			}
			if ps := c.createVec[r]; ps >= 0 {
				c.dependOn(uint64(ps), ci)
			}
		}

		// Dispatch-time functional execution against the speculative
		// context.
		c.disp.PC = rec.pc
		res := functional.Exec(&c.disp, rec.inst, c.dispMem)

		if isMem {
			c.lsqCount++
			e.memAddr = res.MemAddr
			e.isLoad = res.IsLoad
			e.isStore = res.IsStore
			if e.isStore {
				e.memVal = c.disp.Reg(rec.inst.Rs2)
			}
			if e.isLoad {
				if !res.LoadOK {
					c.Stat.UnknownLoads++
					if !c.specMode {
						c.Stat.CorrectPathUnknownLoads++
					}
				}
				// Store-to-load forwarding from the youngest older
				// matching in-flight store.
				for s := seq; s != c.headSeq; {
					s--
					y := c.slot(s)
					if y.valid && y.isStore && y.memAddr == e.memAddr {
						c.dependOn(y.seq, ci)
						e.fwdStore = true
						break
					}
				}
			}
		}

		if e.writesReg = rec.inst.WritesReg(); e.writesReg {
			e.rdVal = c.disp.Reg(rec.inst.Rd)
			c.createVec[rec.inst.Rd] = int64(seq)
		}

		if rec.isBranch {
			e.actTaken = res.Taken
			e.actNext = res.NextPC
			if rec.predNext != res.NextPC && !c.specMode {
				e.doRecover = true
				c.specMode = true
			}
		}
		if e.npend == 0 {
			c.setReady(ci)
		}
	}
	return dispatched
}

// --- Fetch --------------------------------------------------------------------

func (c *Core) stageFetch() int {
	fetched := 0
	if c.fetchHold || c.cycle < c.fetchReadyAt {
		return 0
	}
	condPreds := 0
	lineBytes := uint64(c.cfg.Hier.L1I.LineBytes)
	for n := 0; n < c.cfg.FetchWidth && c.ifqLen < c.cfg.IFQSize; n++ {
		addr := isa.PCToAddr(c.fetchPC)
		line := addr / lineBytes
		if line != c.lastFetchLine {
			done := c.hier.IFetch(addr, c.cycle)
			c.lastFetchLine = line
			if done > c.cycle+uint64(c.cfg.Hier.L1I.HitLat) {
				// I-cache miss: fetch resumes when the line arrives.
				c.fetchReadyAt = done
				return fetched + 1 // the access itself is progress
			}
		}
		in, ok := c.text.Fetch(c.fetchPC)
		rec := fetchRec{pc: c.fetchPC, inst: in, fetchedAt: c.cycle}
		if !ok {
			// Wrong-path fetch into unavailable text: the paper's
			// approximation treats it as a nop-like filler.
			rec.unknown = true
			rec.inst = isa.Inst{Op: isa.OpNop}
			c.Stat.UnknownFetches++
			c.pushFetch(rec)
			fetched++
			c.fetchPC++
			continue
		}
		if in.Op == isa.OpHalt {
			c.pushFetch(rec)
			c.fetchHold = true
			return fetched + 1
		}
		if in.Op.IsBranch() {
			if in.Op.IsCondBranch() {
				if condPreds >= c.cfg.PredsPerCycle {
					return fetched // prediction bandwidth exhausted this cycle
				}
				condPreds++
			}
			rec.isBranch = true
			rec.bpSave = c.bp.SaveLite()
			taken, tgtAddr, known := c.bp.Lookup(isa.PCToAddr(c.fetchPC), in)
			if taken {
				if !known {
					// No predicted target: fetch stalls until the branch
					// resolves and recovery redirects.
					rec.predNext = badPC
					c.pushFetch(rec)
					c.fetchHold = true
					return fetched + 1
				}
				rec.predNext = isa.AddrToPC(tgtAddr)
				c.pushFetch(rec)
				c.fetchPC = rec.predNext
				return fetched + 1 // taken-branch fetch break
			}
			rec.predNext = c.fetchPC + 1
			c.pushFetch(rec)
			fetched++
			c.fetchPC++
			continue
		}
		c.pushFetch(rec)
		fetched++
		c.fetchPC++
	}
	return fetched
}

// pushFetch appends rec to the fetch-queue ring; stageFetch never fills it
// beyond cfg.IFQSize.
func (c *Core) pushFetch(rec fetchRec) {
	i := c.ifqHead + c.ifqLen
	if i >= len(c.ifq) {
		i -= len(c.ifq)
	}
	c.ifq[i] = rec
	c.ifqLen++
}
