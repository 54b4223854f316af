package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"surfcomm"
	"surfcomm/internal/service"
)

// Byte-level pins of the compile request path: any drift in QASM
// canonicalization, routing keys, compile digests, stage-event
// encoding, or the stored plan form fails here first.

// pinQASM is the four-gate circuit the pins compile.
func pinQASM(t *testing.T) string {
	t.Helper()
	circ := surfcomm.NewCircuit("pin", 4)
	circ.Append(surfcomm.OpH, 0)
	circ.Append(surfcomm.OpCNOT, 0, 3)
	circ.Append(surfcomm.OpT, 2)
	circ.Append(surfcomm.OpCNOT, 1, 2)
	var buf bytes.Buffer
	if err := surfcomm.WriteQASM(&buf, circ); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// respelledPinQASM is pinQASM's circuit in every spelling the line
// grammar folds away: the name comment padded with spaces, CRLF line
// ends, tabs, runs of spaces and U+00A0 separators, a blank line, a
// later comment, and the operands q00 and q+2.
const respelledPinQASM = "  #   pin  \r\n" +
	"qubits\t  4\r\n" +
	"\r\n" +
	"\t# not the name\r\n" +
	"h\u00a0q00\u00a0\r\n" +
	"cnot \t q0,q3\r\n" +
	"  t\u00a0 q+2\t\r\n" +
	"cnot\tq1,q+2\r\n"

// shuffleModules moves a canonical program's entry directive to the end
// and reverses the order of its module blocks.
func shuffleModules(t *testing.T, text string) string {
	t.Helper()
	entry, body, ok := strings.Cut(text, "\n")
	if !ok || !strings.HasPrefix(entry, "entry ") || !strings.HasPrefix(body, "module ") {
		t.Fatalf("not a canonical program:\n%s", text)
	}
	blocks := strings.SplitAfter(body, "\nmodule ")
	var out strings.Builder
	for i := len(blocks) - 1; i >= 0; i-- {
		block := strings.TrimSuffix(blocks[i], "module ")
		if i > 0 {
			block = "module " + block
		}
		out.WriteString(block)
	}
	out.WriteString(entry + "\n")
	if len(blocks) < 3 || out.Len() != len(text) {
		t.Fatalf("shuffle kept %d of %d bytes over %d blocks", out.Len(), len(text), len(blocks))
	}
	return out.String()
}

// TestRoutingKeyPinned pins the router's shard key for a flat request,
// a hierarchical one, and one carrying every optional knob: a drifting
// key reshuffles every replica's cache slice on upgrade. The respelled
// cases must key exactly as their canonical spellings do.
func TestRoutingKeyPinned(t *testing.T) {
	policy, seed := 3, int64(11)
	cases := []struct {
		name string
		req  service.Request
		want string
	}{
		{"flat", service.Request{QASM: pinQASM(t)},
			"d6ae057e84fc2861af9e23df31506fa8866bb5ee2b2f9b5a00f696dad1214c54"},
		{"flat respelled", service.Request{QASM: respelledPinQASM},
			"d6ae057e84fc2861af9e23df31506fa8866bb5ee2b2f9b5a00f696dad1214c54"},
		{"hierarchical", service.Request{QASM: pipelineQASM(t, 3, 0)},
			"e2b9545b162c9dcceb448f45c07ef1c580041c0cba69bc8ba5dbe6ec7eba22ea"},
		{"hierarchical shuffled", service.Request{QASM: shuffleModules(t, pipelineQASM(t, 3, 0))},
			"e2b9545b162c9dcceb448f45c07ef1c580041c0cba69bc8ba5dbe6ec7eba22ea"},
		{"knobs", service.Request{
			QASM:           pinQASM(t),
			Backend:        "planar",
			Distance:       7,
			Policy:         &policy,
			Seed:           &seed,
			Window:         40,
			PhysicalError:  1e-6,
			RecordSchedule: true,
			Device:         &service.DeviceSpec{Preset: "random-yield", Frac: 0.02, Seed: 7},
			Calibration:    json.RawMessage(`{"version":1,"name":"pin"}`),
		}, "c9790673f0f28b0533d42fbd00550b6cd20117c0224fdb1b557b8597505000b2"},
	}
	for _, c := range cases {
		got, err := service.RoutingKey(c.req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s routing key = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestHierarchicalCompileDigestPinned is TestCompileDigestPinned for the
// hierarchical dialect: program plans are stored under this digest.
func TestHierarchicalCompileDigestPinned(t *testing.T) {
	res, err := newService(t, service.Config{}).Compile(context.Background(),
		service.Request{QASM: pipelineQASM(t, 3, 0)})
	if err != nil {
		t.Fatal(err)
	}
	const want = "609b608d92fbf3ce29646d8b03fe24e45ae98d20142ab68d499b7d85768da001"
	if res.Digest != want {
		t.Errorf("hierarchical compile digest = %s, want %s", res.Digest, want)
	}
}

// TestCompileStreamLinesPinned pins the exact NDJSON stage lines of a
// cold and a hot streamed /compile, key order included, for a flat and
// a hierarchical request.
func TestCompileStreamLinesPinned(t *testing.T) {
	srv := httptest.NewServer(service.NewHandler(newService(t, service.Config{})))
	defer srv.Close()
	stageLines := func(body []byte) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/compile", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", service.NDJSONContentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var stages []string
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, `{"stage":`) {
				stages = append(stages, line)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(stages, "\n")
	}
	cases := []struct {
		name      string
		qasm      string
		cold, hot string
	}{
		{"flat", pinQASM(t),
			`{"stage":"resolved","backend":"braid","digest":"8705426a715ba41ab66e3d5ef6bcd465467f7551f8b2a04e6b7812611fe7ece3"}
{"stage":"queued"}
{"stage":"compiling","backend":"braid"}
{"stage":"toolchain/compile","backend":"braid","cell":"pin"}`,
			`{"stage":"resolved","backend":"braid","digest":"8705426a715ba41ab66e3d5ef6bcd465467f7551f8b2a04e6b7812611fe7ece3"}
{"stage":"cached"}`},
		{"hierarchical", pipelineQASM(t, 3, 0),
			`{"stage":"resolved","backend":"braid","digest":"609b608d92fbf3ce29646d8b03fe24e45ae98d20142ab68d499b7d85768da001"}
{"stage":"queued"}
{"stage":"compiling","backend":"braid"}
{"stage":"toolchain/compile","backend":"braid","cell":"pipeline"}`,
			`{"stage":"resolved","backend":"braid","digest":"609b608d92fbf3ce29646d8b03fe24e45ae98d20142ab68d499b7d85768da001"}
{"stage":"cached"}`},
	}
	for _, c := range cases {
		body, _ := json.Marshal(service.Request{QASM: c.qasm})
		if got := stageLines(body); got != c.cold {
			t.Errorf("%s cold stage lines:\n%s\nwant:\n%s", c.name, got, c.cold)
		}
		if got := stageLines(body); got != c.hot {
			t.Errorf("%s hot stage lines:\n%s\nwant:\n%s", c.name, got, c.hot)
		}
	}
}

// TestStoredPlanBytesPinned pins the exact store payload of one
// compiled plan: restarted daemons decode these bytes, and a recompile
// must persist them identically.
func TestStoredPlanBytesPinned(t *testing.T) {
	dir := t.TempDir()
	svc := newService(t, service.Config{Store: openStore(t, dir, nil)})
	res, err := svc.Compile(context.Background(), service.Request{QASM: pinQASM(t)})
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	payload, ok := openStore(t, dir, nil).Get(res.Digest)
	if !ok {
		t.Fatalf("no store entry for %s", res.Digest)
	}
	const want = `{"backend":"braid","circuit":"pin","distance":5,"seed":1,"device":"perfect","cycles":24,"seconds":0.00001488,"physical_qubits":1332,"comm_ops":6}`
	if string(payload) != want {
		t.Errorf("stored plan = %s, want %s", payload, want)
	}
}
