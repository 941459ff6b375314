package codegen

// Direct-threaded dispatch: an ahead-of-time backend that compiles a
// []Instr body into a chain of Go closures, one per pc. Each closure
// executes its instruction and returns a pointer to the next node, so the
// hot loop is an indirect call per instruction instead of the Step
// switch's fetch/decode. The semantic contract is bit-identity with the
// interpreter: cycle accounting (Op.Cycles, BreakCheckCycles, CheckCycles),
// RunBudget's instruction-boundary preemption, BreakHook's
// halt-at-the-triggering-instruction behavior, runtime error text and the
// PC/stack state they leave behind are all exactly those of Machine.Step.
// Because the two backends share every piece of machine state, execution
// may switch between them at any instruction boundary — Snapshot/Restore,
// the baseline debugger's single-Step, and slice resumption all compose.

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/value"
)

// tnode is one compiled instruction site. step executes exactly one
// instruction. fused, when non-nil, executes the superinstruction starting
// here (fusedLen instructions); the runner uses it only when no budget
// boundary, armed break hook, or step limit could land strictly inside —
// otherwise the site de-fuses to single-step dispatch.
type tnode struct {
	step  func(m *Machine) (*tnode, error)
	fused func(m *Machine) (*tnode, error)

	// fusedLen is the instruction count of the fused form; fusedButLast is
	// the cycle cost of all but its last instruction. The interpreter stops
	// a budgeted run after the first instruction that reaches the budget,
	// so the fused form is only equivalent when the remaining budget
	// exceeds fusedButLast (every interior boundary stays under budget).
	fusedLen     uint64
	fusedButLast uint64
}

// Threaded is the immutable direct-threaded compilation of one code
// sequence. It captures no machine state, so a single value is shared by
// every Machine running the body — the farm's one-compile-per-model cache
// carries it across sessions for free.
type Threaded struct {
	code  []Instr
	nodes []tnode
	emits int // OpEmit count: the machine pre-sizes its emit buffer to this
}

// matches reports whether t was built for exactly this code slice.
func (t *Threaded) matches(code []Instr) bool {
	return len(code) == len(t.code) && (len(code) == 0 || &code[0] == &t.code[0])
}

// Len returns the instruction count of the threaded code.
func (t *Threaded) Len() int { return len(t.nodes) }

// Thread compiles code into its direct-threaded form, or nil when the
// sequence cannot be threaded (unknown opcode, jump target outside
// [0, len]). Compile refuses such code; a Machine given nil stays on the
// interpreter, which produces the canonical diagnostics for it.
func Thread(p *Program, code []Instr) *Threaded {
	t := &Threaded{code: code, nodes: make([]tnode, len(code))}
	// next resolves the node after pc (nil when execution leaves the code).
	next := func(pc int) *tnode {
		if pc < 0 || pc >= len(code) {
			return nil
		}
		return &t.nodes[pc]
	}
	for pc, in := range code {
		if in.Op > OpHalt {
			return nil
		}
		switch in.Op {
		case OpJmp, OpJZ, OpJNZ:
			if in.A < 0 || int(in.A) > len(code) {
				return nil
			}
		case OpPush:
			if in.A < 0 || int(in.A) >= len(p.Consts) {
				return nil
			}
		case OpCall:
			if in.A < 0 || int(in.A) >= len(builtinNames) || in.B < 0 {
				return nil
			}
		case OpEmit:
			t.emits++
		}
		t.nodes[pc].step = stepNode(p, code[pc], pc, next(pc+1), next)
	}
	fuse(p, code, t.nodes)
	return t
}

// stepNode builds the single-instruction closure for one pc. Each closure
// charges Steps/Cycles exactly as Step does (before executing, so error
// exits leave identical accounting), leaves the PC at the instruction on
// error, and advances it on success.
func stepNode(p *Program, in Instr, pc int, nx *tnode, next func(int) *tnode) func(*Machine) (*tnode, error) {
	npc := pc + 1
	switch in.Op {
	case OpNop:
		return func(m *Machine) (*tnode, error) {
			m.Res.Steps++
			m.Res.Cycles++
			m.PC = npc
			return nx, nil
		}
	case OpPush:
		cv := p.Consts[in.A]
		return func(m *Machine) (*tnode, error) {
			m.Res.Steps++
			m.Res.Cycles++
			m.stack = append(m.stack, cv)
			m.PC = npc
			return nx, nil
		}
	case OpLoad:
		sym := int(in.A)
		return func(m *Machine) (*tnode, error) {
			m.Res.Steps++
			m.Res.Cycles += 4
			v, err := m.Bus.LoadSym(sym)
			if err != nil {
				return nil, err
			}
			m.stack = append(m.stack, v)
			m.PC = npc
			return nx, nil
		}
	case OpStore:
		sym := int(in.A)
		return func(m *Machine) (*tnode, error) {
			m.Res.Steps++
			m.Res.Cycles += 4
			v := m.pop()
			if err := m.Bus.StoreSym(sym, v); err != nil {
				return nil, err
			}
			if m.Hook != nil {
				hit, cost := m.Hook.CheckStore(sym, v)
				m.Res.Cycles += cost
				m.Res.CheckCycles += cost
				if hit {
					m.Res.BreakPC = pc
					m.PC = npc
					return nil, nil
				}
			}
			m.PC = npc
			return nx, nil
		}
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		ab := byte(in.A)
		if ab == 0 {
			ab = arithByte(in.Op)
		}
		cyc := in.Op.Cycles()
		return func(m *Machine) (*tnode, error) {
			m.Res.Steps++
			m.Res.Cycles += cyc
			n := len(m.stack)
			b, a := m.stack[n-1], m.stack[n-2]
			m.stack = m.stack[:n-2]
			r, err := value.Arith(ab, a, b)
			if err != nil {
				return nil, fmt.Errorf("codegen: pc %d: %w", pc, err)
			}
			m.stack = append(m.stack, r)
			m.PC = npc
			return nx, nil
		}
	case OpNeg:
		return func(m *Machine) (*tnode, error) {
			m.Res.Steps++
			m.Res.Cycles++
			v, err := value.Neg(m.pop())
			if err != nil {
				return nil, fmt.Errorf("codegen: pc %d: %w", pc, err)
			}
			m.stack = append(m.stack, v)
			m.PC = npc
			return nx, nil
		}
	case OpNot:
		return func(m *Machine) (*tnode, error) {
			m.Res.Steps++
			m.Res.Cycles++
			m.stack = append(m.stack, value.B(!m.pop().Bool()))
			m.PC = npc
			return nx, nil
		}
	case OpLT, OpLE, OpGT, OpGE:
		op := in.Op
		return func(m *Machine) (*tnode, error) {
			m.Res.Steps++
			m.Res.Cycles++
			n := len(m.stack)
			b, a := m.stack[n-1], m.stack[n-2]
			m.stack = m.stack[:n-2]
			c, err := value.Compare(a, b)
			if err != nil {
				return nil, fmt.Errorf("codegen: pc %d: %w", pc, err)
			}
			var r bool
			switch op {
			case OpLT:
				r = c < 0
			case OpLE:
				r = c <= 0
			case OpGT:
				r = c > 0
			default:
				r = c >= 0
			}
			m.stack = append(m.stack, value.B(r))
			m.PC = npc
			return nx, nil
		}
	case OpEQ:
		return func(m *Machine) (*tnode, error) {
			m.Res.Steps++
			m.Res.Cycles++
			n := len(m.stack)
			b, a := m.stack[n-1], m.stack[n-2]
			m.stack = m.stack[:n-2]
			m.stack = append(m.stack, value.B(value.Equal(a, b)))
			m.PC = npc
			return nx, nil
		}
	case OpNE:
		return func(m *Machine) (*tnode, error) {
			m.Res.Steps++
			m.Res.Cycles++
			n := len(m.stack)
			b, a := m.stack[n-1], m.stack[n-2]
			m.stack = m.stack[:n-2]
			m.stack = append(m.stack, value.B(!value.Equal(a, b)))
			m.PC = npc
			return nx, nil
		}
	case OpJmp:
		jpc := int(in.A)
		jn := next(jpc)
		return func(m *Machine) (*tnode, error) {
			m.Res.Steps++
			m.Res.Cycles += 2
			m.PC = jpc
			return jn, nil
		}
	case OpJZ:
		jpc := int(in.A)
		jn := next(jpc)
		return func(m *Machine) (*tnode, error) {
			m.Res.Steps++
			m.Res.Cycles += 2
			if !m.pop().Bool() {
				m.PC = jpc
				return jn, nil
			}
			m.PC = npc
			return nx, nil
		}
	case OpJNZ:
		jpc := int(in.A)
		jn := next(jpc)
		return func(m *Machine) (*tnode, error) {
			m.Res.Steps++
			m.Res.Cycles += 2
			if m.pop().Bool() {
				m.PC = jpc
				return jn, nil
			}
			m.PC = npc
			return nx, nil
		}
	case OpCall:
		name := builtinNames[in.A]
		argc := int(in.B)
		apply := expr.BuiltinApply(name, argc)
		if apply == nil {
			// Arity statically out of range: keep the canonical CallBuiltin
			// error by resolving per invocation.
			apply = func(args []value.Value) (value.Value, error) {
				return expr.CallBuiltin(name, args)
			}
		}
		return func(m *Machine) (*tnode, error) {
			m.Res.Steps++
			m.Res.Cycles += 16
			base := len(m.stack) - argc
			r, err := apply(m.stack[base:])
			m.stack = m.stack[:base]
			if err != nil {
				return nil, fmt.Errorf("codegen: pc %d: %w", pc, err)
			}
			m.stack = append(m.stack, r)
			m.PC = npc
			return nx, nil
		}
	case OpEmit:
		tmpl := int(in.A)
		hasVal := in.B != 0
		return func(m *Machine) (*tnode, error) {
			m.Res.Steps++
			m.Res.Cycles += EmitCycles
			ref := EmitRef{Template: tmpl}
			if hasVal {
				ref.Value = m.pop()
				ref.HasValue = true
			}
			m.Res.Emits = append(m.Res.Emits, ref)
			if m.Hook != nil {
				hit, cost := m.Hook.CheckEmit(ref)
				m.Res.Cycles += cost
				m.Res.CheckCycles += cost
				if hit {
					m.Res.BreakPC = pc
					m.PC = npc
					return nil, nil
				}
			}
			m.PC = npc
			return nx, nil
		}
	default: // OpHalt
		return func(m *Machine) (*tnode, error) {
			m.Res.Steps++
			m.Res.Cycles++
			m.halted = true
			return nil, nil
		}
	}
}

// runThreaded is RunBudget over the threaded form. It reproduces the
// interpreter loop exactly: the step-limit check precedes every
// instruction, the budget check follows every instruction (the one in
// flight completes, so the run may overshoot by its cost), and a break
// hit or completion ends the run at the same boundary.
func (m *Machine) runThreaded(budget uint64) (ExecResult, error) {
	m.Res.BreakPC = -1
	if m.halted || m.PC >= len(m.threaded.nodes) {
		return m.Res, nil
	}
	start := m.Res.Cycles
	cur := &m.threaded.nodes[m.PC]
	for {
		if m.Res.Steps >= maxSteps {
			return m.Res, fmt.Errorf("codegen: step limit exceeded at pc %d", m.PC)
		}
		var next *tnode
		var err error
		// De-fuse to single-step whenever a break hook is armed, a budget
		// boundary could land inside the superinstruction, or the step
		// limit could trip inside it.
		if cur.fused != nil && m.Hook == nil &&
			budget-(m.Res.Cycles-start) > cur.fusedButLast &&
			m.Res.Steps+cur.fusedLen <= maxSteps {
			next, err = cur.fused(m)
		} else {
			next, err = cur.step(m)
		}
		if err != nil {
			return m.Res, err
		}
		if next == nil || m.Res.Cycles-start >= budget {
			return m.Res, nil
		}
		cur = next
	}
}
