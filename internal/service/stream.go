package service

import (
	"encoding/json"
	"net/http"
	"strings"

	"surfcomm"
)

// Streaming compile progress: a client that sets
// `Accept: application/x-ndjson` on POST /compile gets an NDJSON
// stream instead of one JSON reply — stage events as the request moves
// through the service, then the final CompileResponse as the last
// line. Long compiles (big circuits, high distances, defective-device
// reroutes) stop looking like a hung connection: the client sees the
// request resolve, queue, and compile in real time, and routers pass
// the stream through unbuffered.
//
// Frame grammar (one JSON value per line):
//
//	{"stage":"resolved","backend":"braid","digest":"..."}
//	{"stage":"queued"}                       (cache miss entering admission)
//	{"stage":"compiling","backend":"braid"}  (slot acquired, work started)
//	{"stage":"toolchain/compile","backend":"braid","cell":"gse_8"}
//	{"stage":"cached"}                       (hit/dedup/disk — no compile ran)
//	{"plan":{...},"cached":false,"digest":"..."}   (final line, success)
//	{"error":"...","status":503}                   (final line, failure)
//
// Stage lines are surfcomm.Event values in their JSON form (stage,
// backend, cell, digest; empty fields omitted), so the service and the
// toolchain share one event vocabulary. Stage lines always carry
// "stage"; the final line never does. Errors before the first stage
// line (malformed body, rate limit, bad deadline) are plain HTTP
// statuses — the stream only commits to 200 once the request has
// resolved.

// Stage names the service emits on the /compile NDJSON stream, besides
// the "toolchain/compile" line that follows a successful compile.
const (
	StageResolved  = "resolved"
	StageQueued    = "queued"
	StageCompiling = "compiling"
	StageCached    = "cached"
)

// StreamErrorResponse is the final NDJSON line of a failed streaming
// compile: by the time the failure is known the 200 status line is long
// gone, so the HTTP status that a plain request would have received
// rides in the body.
type StreamErrorResponse struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// NDJSONContentType is the streaming compile negotiation token.
const NDJSONContentType = "application/x-ndjson"

// wantsNDJSON reports whether the request negotiated a streaming
// reply.
func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), NDJSONContentType)
}

// streamCompile is the NDJSON branch of POST /compile. The caller has
// already applied the rate limiter, deadline header, and body decode —
// their failures are still plain HTTP statuses.
func streamCompile(s *Service, w http.ResponseWriter, r *http.Request, req Request) {
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", NDJSONContentType)
	enc := json.NewEncoder(w)
	wrote := false
	send := func(v any) {
		if enc.Encode(v) == nil {
			wrote = true
			rc.Flush() //nolint:errcheck // best-effort; a dead client surfaces on the next write
		}
	}
	res, err := s.compile(r.Context(), req, func(ev surfcomm.Event) { send(ev) })
	if err != nil {
		if !wrote {
			// Nothing on the wire yet (resolve failed): the client gets
			// the same plain status a non-streaming request would.
			writeErr(w, err)
			return
		}
		send(StreamErrorResponse{Error: err.Error(), Status: httpStatus(err)})
		return
	}
	send(compileResponse(res))
}
