package serve

import (
	"encoding/json"
	"errors"
	"net/http"
)

// Handler returns the service's HTTP mux:
//
//	POST /v1/jobs             submit a JobSpec; 202 admitted/queued, 409 rejected,
//	                          413 for a body over maxSubmitBytes
//	GET  /v1/jobs             list jobs in submission order
//	GET  /v1/jobs/{id}        one job's state, plan and result summary
//	GET  /v1/jobs/{id}/report the completed job's run report (exact bytes,
//	                          byte-identical to the equivalent vcrun -report)
//	GET  /v1/jobs/{id}/trace  the completed job's Chrome trace-event spans
//	GET  /v1/graphs           resident graph snapshots
//	GET  /healthz             liveness
//	GET  /metrics.json        registry snapshot as JSON (obs.Registry.WriteJSON)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/graphs", s.handleGraphs)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n")) //nolint:errcheck // best-effort over HTTP
	})
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.registry.WriteJSON(w) //nolint:errcheck // best-effort over HTTP
	})
	return mux
}

// errorBody is the JSON error envelope for every non-2xx response that is
// not a job view.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best-effort over HTTP
}

// maxSubmitBytes caps a POST /v1/jobs body. A JobSpec is a few hundred
// bytes; reading stops at the cap, so an oversized body (say, a megabyte
// tenant name, which would become a metric label) is a 413, not a job.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sp JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	// Validation failures are the client's fault; everything past validate
	// (snapshot load, model training) is the server's.
	if err := sp.validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	view, err := s.Submit(sp)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	code := http.StatusAccepted
	if view.State == JobRejected {
		code = http.StatusConflict
	}
	writeJSON(w, code, view)
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	view, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	raw, state, ok := s.Report(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	if state != JobCompleted {
		writeJSON(w, http.StatusConflict, errorBody{Error: "job not completed (state " + string(state) + ")"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(raw) //nolint:errcheck // best-effort over HTTP
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tracer, state, ok := s.Trace(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	if state != JobCompleted || tracer == nil {
		writeJSON(w, http.StatusConflict, errorBody{Error: "job not completed (state " + string(state) + ")"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	tracer.WriteChromeTrace(w) //nolint:errcheck // best-effort over HTTP
}

func (s *Server) handleGraphs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.store.List())
}
