package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"surfcomm"
	"surfcomm/internal/service"
)

const modularStages = 16

// modularEdit is the hierarchical compile path: each request edits one
// stage of a 16-stage pipeline program (rotating through the stages),
// so the program digest is new while about 15 of 16 module plans come
// from the replica's module cache.
type modularEdit struct {
	f    *fleet
	seed int64
	base *surfcomm.Program
	// text is the base program's canonical QASM; ends[s] is the byte
	// offset where stage s's module body ends in it.
	text   string
	stages []string
	ends   []int
	// oracle holds the in-process answer for each of the first
	// goldenOps edits.
	oracle []planTuple
}

func (w *modularEdit) clients() int  { return maxClients }
func (w *modularEdit) cycle() int    { return 1 }
func (w *modularEdit) fleet() *fleet { return w.f }

func (w *modularEdit) close() {
	if w.f != nil {
		w.f.close()
	}
}

func (w *modularEdit) setup(b *bench) error {
	if err := w.inputs(b.seed); err != nil {
		return err
	}
	// Oracle: the leading edits compiled in process through
	// Toolchain.CompileIncremental, checked at every seed.
	ctx := context.Background()
	tc, err := surfcomm.NewToolchain(surfcomm.WithModular())
	if err != nil {
		return err
	}
	if _, err := tc.CompileIncremental(ctx, surfcomm.BraidBackend{}, w.base); err != nil {
		return err
	}
	w.oracle = make([]planTuple, goldenOps)
	for i := range w.oracle {
		p, err := surfcomm.ReadProgramQASM(strings.NewReader(w.programText(int64(i))))
		if err != nil {
			return err
		}
		plan, err := tc.CompileIncremental(ctx, surfcomm.BraidBackend{}, p)
		if err != nil {
			return err
		}
		w.oracle[i] = tupleOf(service.Summarize(plan))
	}
	if w.f, err = startFleet(b.workdir, b.tr); err != nil {
		return err
	}
	// Prime every replica's module cache with the unedited program, as
	// a team iterating on one kernel at a time already compiled it.
	qj, err := json.Marshal(w.text)
	if err != nil {
		return err
	}
	body := compileBody(qj, "braid", -1)
	for _, r := range w.f.reps {
		resp, err := w.f.client.Post(r.srv.URL+"/compile", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("priming replica %s: %w", r.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("priming replica %s: status %d", r.name, resp.StatusCode)
		}
	}
	return nil
}

// inputs builds the base program and locates each stage's module body
// in its canonical text.
func (w *modularEdit) inputs(seed int64) error {
	w.seed = seed
	var err error
	if w.base, err = surfcomm.PipelineProgram(modularStages); err != nil {
		return err
	}
	w.text = surfcomm.ProgramQASMString(w.base)
	w.stages = w.stages[:0]
	for name := range w.base.Modules {
		if name != w.base.Entry {
			w.stages = append(w.stages, name)
		}
	}
	sort.Strings(w.stages)
	w.ends = make([]int, len(w.stages))
	for s, name := range w.stages {
		head := "module " + name + " "
		at := strings.Index(w.text, head)
		if at < 0 {
			return fmt.Errorf("stage %s missing from the program text", name)
		}
		end := strings.Index(w.text[at+len(head):], "\nmodule ")
		if end < 0 {
			w.ends[s] = len(w.text)
		} else {
			w.ends[s] = at + len(head) + end + 1
		}
	}
	return nil
}

// variant is op i's edit number: distinct for every (seed, op).
func (w *modularEdit) variant(i int64) int {
	return int(w.seed%1000)*1_000_000 + int(i%1_000_000) + 1
}

// programText renders op i's program: the base program with stage
// i mod 16 edited exactly as surfcomm.MutateModule edits it, spliced
// into the base text instead of cloning and re-serializing the program.
func (w *modularEdit) programText(i int64) string {
	s := int(i % modularStages)
	name := w.stages[s]
	n := w.base.Modules[name].NumQubits
	v := w.variant(i)
	q := (v + 7) % n
	gate := func(sb *strings.Builder, op surfcomm.Opcode, q int) {
		sb.WriteString(surfcomm.Gate{Op: op, Qubits: []int{q}}.String())
		sb.WriteByte('\n')
	}
	var sb strings.Builder
	sb.Grow(len(w.text) + 256)
	sb.WriteString(w.text[:w.ends[s]])
	gate(&sb, surfcomm.OpZ, q)
	gate(&sb, surfcomm.OpS, (q+1)%n)
	for x := v; x > 0; x >>= 1 {
		if x&1 == 1 {
			gate(&sb, surfcomm.OpS, q)
		} else {
			gate(&sb, surfcomm.OpZ, q)
		}
	}
	sb.WriteString(w.text[w.ends[s]:])
	return sb.String()
}

func (w *modularEdit) body(i int64) []byte {
	qj, _ := json.Marshal(w.programText(i)) //nolint:errcheck // a string always marshals
	return compileBody(qj, "braid", -1)
}

func (w *modularEdit) do(ctx context.Context, b *bench, _ int, i int64, traced bool) []sample {
	body := w.body(i)
	s := sample{op: i, traced: traced, id: b.traceID(traced, i)}
	start := time.Now()
	rep, err := w.f.post(ctx, "/compile", body, s.id)
	end := time.Now()
	s.lat = end.Sub(start)
	b.span(s.id, spanClient, start, end, 0)
	if err != nil || rep.status != http.StatusOK {
		s.failed = true
		return []sample{s}
	}
	var cr service.CompileResponse
	switch {
	case json.Unmarshal(rep.body, &cr) != nil || cr.Plan == nil:
		b.chk.failf("modular-edit op %d: undecodable reply %.200s", i, rep.body)
	case cr.Cached:
		b.chk.failf("modular-edit op %d: a never-seen edit was served from cache", i)
	case cr.Plan.Backend != "braid" || cr.Plan.Cycles <= 0:
		b.chk.failf("modular-edit op %d: plan %+v", i, *cr.Plan)
	case i < goldenOps && tupleOf(*cr.Plan) != w.oracle[i]:
		b.chk.failf("modular-edit op %d: plan %+v, in-process compile %+v", i, tupleOf(*cr.Plan), w.oracle[i])
	case i < goldenOps:
		b.gold.plan(b, "modular-edit", i, tupleOf(*cr.Plan))
	}
	return []sample{s}
}

func (w *modularEdit) request(i int64) (string, service.Request, error) {
	return "/compile", service.Request{QASM: w.programText(i), Backend: "braid"}, nil
}

// work replays each edit's resolve and incremental compile on an
// in-process service whose module cache holds the unedited program.
func (w *modularEdit) work(ops []int64) ([]time.Duration, error) {
	svc := service.New(nil, service.Config{Workers: 1, MaxEntries: 256})
	if _, err := svc.Compile(context.Background(), service.Request{QASM: w.text, Backend: "braid"}); err != nil {
		return nil, err
	}
	return replayCompiles(svc, w, ops)
}
