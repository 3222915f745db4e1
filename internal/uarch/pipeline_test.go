package uarch

import (
	"testing"

	"livepoints/internal/bpred"
	"livepoints/internal/cache"
	"livepoints/internal/functional"
	"livepoints/internal/isa"
	"livepoints/internal/mem"
)

// sliceText adapts a raw instruction slice to the text-source interface.
type sliceText []isa.Inst

func (s sliceText) Fetch(pc uint64) (isa.Inst, bool) {
	if pc >= uint64(len(s)) {
		return isa.Inst{}, false
	}
	return s[pc], true
}

// newMicroCore builds a core over a hand-written program with cold
// structures.
func newMicroCore(text []isa.Inst, cfg Config) *Core {
	m := mem.New()
	h := cache.NewHier(cfg.Hier)
	bp := bpred.New(cfg.BP)
	return NewCore(cfg, sliceText(text), m, functional.State{}, h, bp)
}

// warmText preloads the instruction cache and TLB with the program text,
// so fetch runs at full width and the back end sets the pace.
func warmText(c *Core, text []isa.Inst) {
	for pc := range text {
		c.hier.WarmFetch(isa.PCToAddr(uint64(pc)))
	}
}

// TestDependenceChainSlowerThanILP checks the scheduler honours data
// dependences: a serial chain of N adds must take ~N cycles while N
// independent adds finish in ~N/width.
func TestDependenceChainSlowerThanILP(t *testing.T) {
	cfg := Config8Way()
	const n = 64
	// Both bodies loop 200 times so cold instruction fetch amortizes and
	// the schedule, not the front end, dominates.
	mkLoop := func(body func(i int) isa.Inst) []isa.Inst {
		var text []isa.Inst
		text = append(text, isa.Inst{Op: isa.OpLui, Rd: 60, Imm: 200})
		top := int64(len(text))
		for i := 0; i < n; i++ {
			text = append(text, body(i))
		}
		text = append(text, isa.Inst{Op: isa.OpAddI, Rd: 60, Rs1: 60, Imm: -1})
		text = append(text, isa.Inst{Op: isa.OpBne, Rs1: 60, Rs2: 0, Imm: top})
		text = append(text, isa.Inst{Op: isa.OpHalt})
		return text
	}
	serial := mkLoop(func(int) isa.Inst {
		return isa.Inst{Op: isa.OpAddI, Rd: 1, Rs1: 1, Imm: 1}
	})
	parallel := mkLoop(func(i int) isa.Inst {
		r := uint8(1 + i%32)
		return isa.Inst{Op: isa.OpAddI, Rd: r, Rs1: r, Imm: 1}
	})

	cs := newMicroCore(serial, cfg)
	cs.Run(1 << 22)
	cp := newMicroCore(parallel, cfg)
	cp.Run(1 << 22)

	if cs.Stat.Cycles < 200*n {
		t.Fatalf("serial chain took %d cycles for %d dependent adds — dependences ignored", cs.Stat.Cycles, 200*n)
	}
	if cp.Stat.Cycles*2 >= cs.Stat.Cycles {
		t.Fatalf("independent adds (%d cycles) not meaningfully faster than chain (%d cycles)",
			cp.Stat.Cycles, cs.Stat.Cycles)
	}
}

// TestDivUnitStallsAreVisible checks unpipelined long-latency units
// back-pressure the schedule.
func TestDivUnitStallsAreVisible(t *testing.T) {
	cfg := Config8Way()
	const n = 16
	divs := make([]isa.Inst, 0, n+2)
	divs = append(divs, isa.Inst{Op: isa.OpLui, Rd: 1, Imm: 7})
	for i := 0; i < n; i++ {
		// Independent divides: throughput-bound by the unpipelined units.
		divs = append(divs, isa.Inst{Op: isa.OpDiv, Rd: uint8(2 + i%8), Rs1: 1, Rs2: 1})
	}
	divs = append(divs, isa.Inst{Op: isa.OpHalt})
	c := newMicroCore(divs, cfg)
	c.Run(1 << 20)
	// Two IMUL/IDIV units with issue interval 19: n divides need at least
	// n/2 * 19 cycles.
	if want := uint64(n / 2 * 19); c.Stat.Cycles < want {
		t.Fatalf("%d independent divides in %d cycles, want >= %d", n, c.Stat.Cycles, want)
	}
}

// TestStoreLoadForwarding checks a load of a just-stored address completes
// quickly (forwarded) and architecturally correctly.
func TestStoreLoadForwarding(t *testing.T) {
	cfg := Config8Way()
	text := []isa.Inst{
		{Op: isa.OpLui, Rd: 1, Imm: 0x10000},
		{Op: isa.OpLui, Rd: 2, Imm: 1234},
		{Op: isa.OpStore, Rs1: 1, Rs2: 2, Imm: 0},
		{Op: isa.OpLoad, Rd: 3, Rs1: 1, Imm: 0},
		{Op: isa.OpHalt},
	}
	c := newMicroCore(text, cfg)
	c.Run(1 << 20)
	if got := c.CommittedState().Regs[3]; got != 1234 {
		t.Fatalf("forwarded load got %d", got)
	}

	// Control: the same program loading a different cold address pays a
	// full TLB+memory round trip that forwarding avoids.
	control := make([]isa.Inst, len(text))
	copy(control, text)
	control[3] = isa.Inst{Op: isa.OpLoad, Rd: 3, Rs1: 1, Imm: 1 << 20}
	cc := newMicroCore(control, cfg)
	cc.Run(1 << 20)
	if c.Stat.Cycles+100 > cc.Stat.Cycles {
		t.Fatalf("forwarding (%d cycles) not meaningfully faster than cold load (%d cycles)",
			c.Stat.Cycles, cc.Stat.Cycles)
	}
}

// TestRUUBackpressure checks that a long-latency load stalls dispatch
// through RUU occupancy rather than deadlocking, and that cfg.RUUSize, not
// the power-of-two ring behind it, bounds occupancy.
func TestRUUBackpressure(t *testing.T) {
	for _, size := range []int{16, 48} {
		cfg := Config8Way()
		cfg.RUUSize = size
		cfg.LSQSize = 8
		text := []isa.Inst{
			{Op: isa.OpLui, Rd: 1, Imm: 0x400000},
			{Op: isa.OpLoad, Rd: 2, Rs1: 1, Imm: 0}, // cold: TLB+L2+mem miss
		}
		// Dependent chain long enough to fill the RUU and its ring.
		for i := 0; i < 128; i++ {
			text = append(text, isa.Inst{Op: isa.OpAdd, Rd: 3, Rs1: 3, Rs2: 2})
		}
		text = append(text, isa.Inst{Op: isa.OpHalt})
		c := newMicroCore(text, cfg)
		warmText(c, text)
		var committed, peak uint64
		for !c.Halted() {
			committed += c.Run(1)
			if occ := c.tailSeq - c.headSeq; occ > peak {
				peak = occ
			}
		}
		if committed != uint64(len(text)) {
			t.Fatalf("RUU %d: committed %d of %d", size, committed, len(text))
		}
		if peak != uint64(size) {
			t.Fatalf("RUU %d: peak occupancy %d, want %d", size, peak, size)
		}
	}
}

// TestRecoveryPrunesWakeupLists: a mispredicted branch resolves while a
// cold load it does not depend on is still outstanding, and the wrong path
// behind it is full of consumers of that load. Recovery squashes them and
// the correct path reuses their RUU slots (and sequence numbers) for new
// consumers of the same load. The squashed consumers must leave the load's
// wakeup list, or its completion would follow edges the reused slots have
// rewritten (looping forever) or wake those slots twice and wedge them.
func TestRecoveryPrunesWakeupLists(t *testing.T) {
	cfg := Config8Way()
	text := []isa.Inst{
		{Op: isa.OpLui, Rd: 1, Imm: 0x400000},
		{Op: isa.OpLoad, Rd: 2, Rs1: 1, Imm: 0}, // cold: hundreds of cycles
		// A short multiply chain delays the branch so a long wrong path
		// dispatches before it resolves, yet it resolves long before the
		// load returns.
		{Op: isa.OpMul, Rd: 7, Rs1: 7, Rs2: 7},
		{Op: isa.OpMul, Rd: 7, Rs1: 7, Rs2: 7},
		{Op: isa.OpBeq, Rs1: 7, Rs2: 0, Imm: 0},    // taken; a cold predictor says not taken
		{Op: isa.OpStore, Rs1: 1, Rs2: 2, Imm: 64}, // wrong path from here on
	}
	for i := 0; i < 24; i++ {
		text = append(text, isa.Inst{Op: isa.OpAdd, Rd: uint8(4 + i%4), Rs1: 2, Rs2: 2})
	}
	text = append(text, isa.Inst{Op: isa.OpLoad, Rd: 8, Rs1: 1, Imm: 64})
	text[4].Imm = int64(len(text)) // branch target: the correct path
	for i := 0; i < 24; i++ {
		text = append(text, isa.Inst{Op: isa.OpAdd, Rd: uint8(9 + i%4), Rs1: uint8(9 + i%4), Rs2: 2})
	}
	text = append(text, isa.Inst{Op: isa.OpHalt})

	c := newMicroCore(text, cfg)
	warmText(c, text)
	c.Run(1 << 20)
	if !c.Halted() {
		t.Fatal("program did not finish")
	}
	if c.Stat.Recoveries != 1 || c.Stat.WrongPathDisp < 24 {
		t.Fatalf("scenario not exercised: %d recoveries, %d wrong-path dispatches", c.Stat.Recoveries, c.Stat.WrongPathDisp)
	}
	ref := functional.New(sliceText(text), mem.New())
	if _, err := ref.RunToHalt(1 << 20); err != nil {
		t.Fatal(err)
	}
	if c.CommittedState().Regs != ref.Regs {
		t.Fatal("committed state differs from the functional reference")
	}
}

// TestStaleCompletionIgnored: a squashed wrong-path load leaves its
// completion event behind, and recovery hands its sequence number to a
// correct-path load that issues later and finishes later. An older load
// still in flight keeps the stale event below the heap top until the new
// load has issued. The stale event must not complete the new load early.
// The oracle is the same program with a nop in that wrong-path slot: the
// wrong-path load touches a page the correct path never uses, so timing
// must not change.
func TestStaleCompletionIgnored(t *testing.T) {
	build := func(wrongPath isa.Inst) []isa.Inst {
		return []isa.Inst{
			{Op: isa.OpLui, Rd: 1, Imm: 0x400000},
			{Op: isa.OpLui, Rd: 7, Imm: 1},
			{Op: isa.OpLoad, Rd: 5, Rs1: 1, Imm: 0}, // survives recovery
			// Three divides delay the branch well past the wrong-path
			// load's issue.
			{Op: isa.OpDiv, Rd: 7, Rs1: 7, Rs2: 7},
			{Op: isa.OpDiv, Rd: 7, Rs1: 7, Rs2: 7},
			{Op: isa.OpDiv, Rd: 7, Rs1: 7, Rs2: 7},
			{Op: isa.OpBne, Rs1: 7, Rs2: 0, Imm: 9}, // taken; predicted not taken
			wrongPath,
			{Op: isa.OpHalt},
			{Op: isa.OpLoad, Rd: 2, Rs1: 1, Imm: 1 << 20}, // correct path: a fresh page
			{Op: isa.OpAdd, Rd: 3, Rs1: 2, Rs2: 2},
			{Op: isa.OpHalt},
		}
	}
	cycles := func(text []isa.Inst) uint64 {
		c := newMicroCore(text, Config8Way())
		warmText(c, text)
		c.Run(1 << 20)
		if !c.Halted() || c.Stat.Recoveries != 1 {
			t.Fatalf("scenario not exercised: halted=%v recoveries=%d", c.Halted(), c.Stat.Recoveries)
		}
		return c.Stat.Cycles
	}
	withLoad := cycles(build(isa.Inst{Op: isa.OpLoad, Rd: 4, Rs1: 1, Imm: 1 << 24}))
	withNop := cycles(build(isa.Inst{Op: isa.OpNop}))
	if withLoad != withNop {
		t.Fatalf("a squashed wrong-path load moved correct-path timing: %d cycles vs %d with a nop", withLoad, withNop)
	}
}

// TestICacheMissesSlowFetch checks a program whose text spans many lines
// pays instruction-fetch misses on first traversal.
func TestICacheMissesSlowFetch(t *testing.T) {
	cfg := Config8Way()
	// Straight-line code long enough to exceed one L1I way but run once:
	// every line is a cold miss.
	var text []isa.Inst
	for i := 0; i < 4096; i++ {
		text = append(text, isa.Inst{Op: isa.OpAddI, Rd: 1, Rs1: 1, Imm: 1})
	}
	text = append(text, isa.Inst{Op: isa.OpHalt})
	c := newMicroCore(text, cfg)
	c.Run(1 << 22)
	if c.hier.L1I.Stat.Misses == 0 {
		t.Fatal("no instruction-cache misses on cold straight-line code")
	}
	// CPI must reflect the cold fetch stream: well above the width bound.
	if cpi := c.Stat.CPI(); cpi < 0.5 {
		t.Fatalf("cold-text CPI %.3f suspiciously low", cpi)
	}
}

// TestMispredictPenaltyVisible compares a perfectly-biased branch loop with
// an LCG-random branch loop: the random one must be slower per instruction.
func TestMispredictPenaltyVisible(t *testing.T) {
	cfg := Config8Way()
	biased := loopProgram(true)
	random := loopProgram(false)

	cb := newMicroCore(biased, cfg)
	cb.Run(1 << 22)
	cr := newMicroCore(random, cfg)
	cr.Run(1 << 22)

	if cr.Stat.Recoveries <= cb.Stat.Recoveries {
		t.Fatalf("random branches recovered %d times, biased %d", cr.Stat.Recoveries, cb.Stat.Recoveries)
	}
	if cr.Stat.CPI() <= cb.Stat.CPI() {
		t.Fatalf("random-branch CPI %.3f not above biased %.3f", cr.Stat.CPI(), cb.Stat.CPI())
	}
}

// loopProgram builds a 2000-iteration loop with a data-dependent hammock;
// biased branches take one side always, random ones follow an LCG bit.
func loopProgram(biased bool) []isa.Inst {
	var a []isa.Inst
	emit := func(in isa.Inst) int { a = append(a, in); return len(a) - 1 }
	emit(isa.Inst{Op: isa.OpLui, Rd: 1, Imm: 2000})  // counter
	emit(isa.Inst{Op: isa.OpLui, Rd: 2, Imm: 12345}) // lcg state
	top := int64(len(a))
	emit(isa.Inst{Op: isa.OpLui, Rd: 5, Imm: 6364136223846793005})
	emit(isa.Inst{Op: isa.OpMul, Rd: 2, Rs1: 2, Rs2: 5})
	emit(isa.Inst{Op: isa.OpAddI, Rd: 2, Rs1: 2, Imm: 1442695040888963407 & 0x7fffffff})
	if biased {
		emit(isa.Inst{Op: isa.OpLui, Rd: 3, Imm: 0}) // always falls through
	} else {
		emit(isa.Inst{Op: isa.OpShrI, Rd: 3, Rs1: 2, Imm: 40})
		emit(isa.Inst{Op: isa.OpAndI, Rd: 3, Rs1: 3, Imm: 1})
	}
	br := emit(isa.Inst{Op: isa.OpBne, Rs1: 3, Rs2: 0, Imm: -1})
	emit(isa.Inst{Op: isa.OpAddI, Rd: 4, Rs1: 4, Imm: 1})
	join := emit(isa.Inst{Op: isa.OpAddI, Rd: 4, Rs1: 4, Imm: 2})
	a[br].Imm = int64(join)
	emit(isa.Inst{Op: isa.OpAddI, Rd: 1, Rs1: 1, Imm: -1})
	emit(isa.Inst{Op: isa.OpBne, Rs1: 1, Rs2: 0, Imm: top})
	emit(isa.Inst{Op: isa.OpHalt})
	return a
}

// TestEventSkipEquivalence checks the cycle-skipping fast path: jumping
// over idle cycles to the next event must give exactly the statistics of
// stepping every cycle, on a memory-stall-heavy program and on a branchy
// program whose squashed wrong paths leave stale completion events behind.
func TestEventSkipEquivalence(t *testing.T) {
	stalls := []isa.Inst{
		{Op: isa.OpLui, Rd: 1, Imm: 0x2000000},
	}
	// Pointer-chase-like serial loads to fresh pages: maximal stalls.
	for i := 0; i < 32; i++ {
		stalls = append(stalls, isa.Inst{Op: isa.OpLoad, Rd: 2, Rs1: 1, Imm: int64(i) * 8192})
		stalls = append(stalls, isa.Inst{Op: isa.OpAdd, Rd: 3, Rs1: 3, Rs2: 2})
	}
	stalls = append(stalls, isa.Inst{Op: isa.OpHalt})

	run := func(text []isa.Inst, step bool) *Core {
		noEventSkip = step
		defer func() { noEventSkip = false }()
		c := newMicroCore(text, Config8Way())
		c.Run(1 << 22)
		return c
	}
	for _, tc := range []struct {
		name string
		text []isa.Inst
	}{{"stalls", stalls}, {"wrong-path", loopProgram(false)}} {
		skipped, stepped := run(tc.text, false), run(tc.text, true)
		if skipped.Stat != stepped.Stat {
			t.Fatalf("%s: skipping %+v != stepping %+v", tc.name, skipped.Stat, stepped.Stat)
		}
		ref := functional.New(sliceText(tc.text), mem.New())
		if _, err := ref.RunToHalt(1 << 22); err != nil {
			t.Fatal(err)
		}
		if skipped.CommittedState().Regs != ref.Regs {
			t.Fatalf("%s: committed wrong state", tc.name)
		}
	}
}
