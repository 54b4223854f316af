package circuit

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unsafe"
)

// AppendCanonical validates text in either dialect exactly as ReadQASM
// or ReadProgramQASM does, choosing the dialect as LooksHierarchicalQASM
// does, and appends to dst the bytes WriteQASM or WriteProgramQASM
// would emit for the result, without building a Circuit or Program.
// Spacing, comments, operand spelling and module order thus never
// change the bytes, which is what the service's cache keys rely on. On
// error dst is returned as it was. In steady state it allocates
// nothing.
func AppendCanonical(dst []byte, text string) ([]byte, error) {
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	c := &sc.canon
	c.dst, c.base = dst, len(dst)
	if err := parse(text, c, &sc.operands); err != nil {
		return dst, err
	}
	return c.dst, nil
}

// scratch is the reusable state of one AppendCanonical call.
type scratch struct {
	operands []int
	canon    canonSink
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{canon: canonSink{byName: map[string]int{}}}
}}

// maxPooledScratch bounds the bytes of scratch the pool keeps: what
// one huge text grew goes back to the GC.
const maxPooledScratch = 1 << 20

// release drops every reference into the text and the caller's buffer,
// then pools the scratch unless it grew past maxPooledScratch.
func (sc *scratch) release() {
	c := &sc.canon
	c.dst = nil
	clear(c.mods)
	clear(c.calls)
	clear(c.byName)
	c.mods, c.calls, c.args = c.mods[:0], c.calls[:0], c.args[:0]
	size := uintptr(cap(sc.operands)+cap(c.args))*unsafe.Sizeof(int(0)) +
		uintptr(cap(c.mods))*unsafe.Sizeof(modSpan{}) +
		uintptr(cap(c.calls))*unsafe.Sizeof(callRef{})
	if size > maxPooledScratch {
		return
	}
	scratchPool.Put(sc)
}

// canonSink appends each statement's canonical line as it is read. A
// flat circuit's lines are already in canonical order. A program's
// module bodies are laid down in text order and indexed; endProgram
// runs Program.Validate's checks on that index, then reorders the
// bodies entry first and the rest by name.
type canonSink struct {
	dst  []byte
	base int // len(dst) on entry

	mods   []modSpan
	calls  []callRef // every module's calls, in text order
	args   []int     // the calls' operands, end to end
	byName map[string]int
	order  []int
	color  []uint8
}

// modSpan indexes one module body.
type modSpan struct {
	name       string
	n          int
	start, end int // the canonical body in dst
	calls      int // the module's first call in canonSink.calls
	insts      int
	badInst    int // first gate failing Gate.Validate, or -1
	badGate    error
}

// callRef indexes one call line.
type callRef struct {
	callee string
	inst   int
	args   int // first operand in canonSink.args
	nargs  int
	target int // callee's module, or -1
}

func (c *canonSink) qubits(name string, n int) {
	if name != "" {
		c.dst = append(c.dst, "# "...)
		c.dst = append(c.dst, name...)
		c.dst = append(c.dst, '\n')
	}
	c.dst = append(c.dst, "qubits "...)
	c.dst = strconv.AppendInt(c.dst, int64(n), 10)
	c.dst = append(c.dst, '\n')
}

func (c *canonSink) gate(op Opcode, qs []int) {
	c.dst = append(appendGate(c.dst, op, qs), '\n')
	if len(c.mods) == 0 {
		return
	}
	m := &c.mods[len(c.mods)-1]
	if m.badInst < 0 {
		if err := (Gate{Op: op, Qubits: qs}).Validate(m.n); err != nil {
			m.badInst, m.badGate = m.insts, err
		}
	}
	m.insts++
}

func (c *canonSink) module(name string, n int) error {
	if _, dup := c.byName[name]; dup {
		return fmt.Errorf("circuit: duplicate module %q", name)
	}
	c.closeModule()
	c.byName[name] = len(c.mods)
	c.mods = append(c.mods, modSpan{name: name, n: n, start: len(c.dst), calls: len(c.calls), badInst: -1})
	c.dst = appendModuleHeader(c.dst, name, n)
	return nil
}

func (c *canonSink) call(callee string, args []int) {
	m := &c.mods[len(c.mods)-1]
	c.calls = append(c.calls, callRef{callee: callee, inst: m.insts, args: len(c.args), nargs: len(args)})
	c.args = append(c.args, args...)
	m.insts++
	c.dst = append(appendCall(c.dst, callee, args), '\n')
}

// closeModule ends the open module's body at the end of dst.
func (c *canonSink) closeModule() {
	if len(c.mods) > 0 {
		c.mods[len(c.mods)-1].end = len(c.dst)
	}
}

// modCalls returns module i's calls.
func (c *canonSink) modCalls(i int) []callRef {
	end := len(c.calls)
	if i+1 < len(c.mods) {
		end = c.mods[i+1].calls
	}
	return c.calls[c.mods[i].calls:end]
}

func (c *canonSink) endProgram(entry string) error {
	c.closeModule()
	ei, ok := c.byName[entry]
	if !ok {
		return fmt.Errorf("circuit: entry module %q not found", entry)
	}
	for i := range c.calls {
		t, ok := c.byName[c.calls[i].callee]
		if !ok {
			t = -1
		}
		c.calls[i].target = t
	}
	c.order = c.order[:0]
	for i := range c.mods {
		c.order = append(c.order, i)
	}
	slices.SortFunc(c.order, func(a, b int) int { return strings.Compare(c.mods[a].name, c.mods[b].name) })
	for _, i := range c.order {
		if err := c.check(i); err != nil {
			return err
		}
	}
	c.color = append(c.color[:0], make([]uint8, len(c.mods))...)
	if err := c.visit(ei); err != nil {
		return err
	}

	// Lay the canonical text down past the bodies, then move it over
	// them.
	mid := len(c.dst)
	c.dst = append(c.dst, "entry "...)
	c.dst = append(c.dst, entry...)
	c.dst = append(c.dst, '\n')
	c.dst = append(c.dst, c.dst[c.mods[ei].start:c.mods[ei].end]...)
	for _, i := range c.order {
		if i != ei {
			c.dst = append(c.dst, c.dst[c.mods[i].start:c.mods[i].end]...)
		}
	}
	n := copy(c.dst[c.base:], c.dst[mid:])
	c.dst = c.dst[:c.base+n]
	return nil
}

// check runs Program.Validate's per-module checks on module i, in its
// order: instructions in turn, and within a call the callee, its arity,
// then each argument.
func (c *canonSink) check(i int) error {
	m := &c.mods[i]
	for _, call := range c.modCalls(i) {
		if m.badInst >= 0 && call.inst > m.badInst {
			break
		}
		if call.target < 0 {
			return fmt.Errorf("circuit: %s inst %d calls unknown module %q", m.name, call.inst, call.callee)
		}
		if want := c.mods[call.target].n; call.nargs != want {
			return fmt.Errorf("circuit: %s inst %d: call %s wants %d args, got %d",
				m.name, call.inst, call.callee, want, call.nargs)
		}
		args := c.args[call.args : call.args+call.nargs]
		dup := firstRepeat(args)
		for ai, a := range args {
			if a < 0 || a >= m.n {
				return fmt.Errorf("circuit: %s inst %d: arg %d out of range", m.name, call.inst, a)
			}
			if ai == dup {
				return fmt.Errorf("circuit: %s inst %d: repeated arg %d", m.name, call.inst, a)
			}
		}
	}
	if m.badInst >= 0 {
		return fmt.Errorf("circuit: %s inst %d: %w", m.name, m.badInst, m.badGate)
	}
	return nil
}

// visit is Program.Validate's depth-first cycle check below module i.
func (c *canonSink) visit(i int) error {
	const (
		grey  = 1
		black = 2
	)
	switch c.color[i] {
	case grey:
		return fmt.Errorf("circuit: recursive call cycle through %q", c.mods[i].name)
	case black:
		return nil
	}
	c.color[i] = grey
	for _, call := range c.modCalls(i) {
		if err := c.visit(call.target); err != nil {
			return err
		}
	}
	c.color[i] = black
	return nil
}

// appendGate appends a gate's canonical form, e.g. "cnot q0,q3".
func appendGate(dst []byte, op Opcode, qs []int) []byte {
	dst = append(dst, op.String()...)
	if len(qs) == 0 {
		return dst
	}
	return appendQubitList(append(dst, ' '), qs)
}

// appendCall appends a call line's canonical form, e.g. "call sub q1,q2".
func appendCall(dst []byte, callee string, args []int) []byte {
	dst = append(dst, "call "...)
	dst = append(dst, callee...)
	return appendQubitList(append(dst, ' '), args)
}

// appendQubitList appends an operand list, e.g. "q1,q2".
func appendQubitList(dst []byte, qs []int) []byte {
	for i, q := range qs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, 'q')
		dst = strconv.AppendInt(dst, int64(q), 10)
	}
	return dst
}

// appendModuleHeader appends a module directive line.
func appendModuleHeader(dst []byte, name string, n int) []byte {
	dst = append(dst, "module "...)
	dst = append(dst, name...)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, '\n')
}
