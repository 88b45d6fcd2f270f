// The HTTP face of the scheduler, mounted onto an obsv mux via
// Options.Extend. Everything is stdlib net/http with Go 1.22 method
// patterns; bodies are JSON except result downloads, which are the raw
// canonical bytes (so CI can cmp them against a reference run).
//
//	POST /api/campaigns              submit {key, spec} (or the
//	                                 Idempotency-Key header) →
//	                                 201 created / 200 deduplicated
//	GET  /api/campaigns              all records
//	GET  /api/campaigns/{id}         one record
//	GET  /api/campaigns/{id}/result  merged canonical bytes (octet-stream)
//	GET  /api/stats                  scheduler counters
//
// Error contract (all JSON {"error": ...}):
//
//	400  invalid JSON (unknown fields and trailing data included),
//	     missing idempotency key, spec validation
//	404  unknown campaign
//	409  key reused with a different spec; result requested before done
//	429  queue full (Retry-After: 1)
//	503  draining (Retry-After: 5); degraded read-only mode or a
//	     persistent storage failure (Retry-After: 10)
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// maxBodyBytes bounds a submission body; specs are small and a bound
// keeps a misdirected upload from ballooning the daemon.
const maxBodyBytes = 1 << 20

// submitRequest is the POST body. Key may instead arrive in the
// Idempotency-Key header, which wins when both are present.
type submitRequest struct {
	Key  string `json:"key,omitempty"`
	Spec Spec   `json:"spec"`
}

// submitResponse wraps the record with whether this call created it.
type submitResponse struct {
	Created  bool `json:"created"`
	Campaign any  `json:"campaign"`
}

type errorResponse struct {
	Error string `json:"error"`
	State State  `json:"state,omitempty"`
}

// Mount registers the API routes. Shaped to be passed directly as
// obsv.Options.Extend.
func (s *Scheduler) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /api/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /api/campaigns", s.handleList)
	mux.HandleFunc("GET /api/campaigns/{id}", s.handleGet)
	mux.HandleFunc("GET /api/campaigns/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/stats", s.handleStats)
}

func (s *Scheduler) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(body) > maxBodyBytes {
		writeErr(w, http.StatusRequestEntityTooLarge, "body exceeds 1 MiB")
		return
	}
	req, err := decodeSubmit(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if h := r.Header.Get("Idempotency-Key"); h != "" {
		req.Key = h
	}

	c, created, err := s.Submit(req.Spec, req.Key)
	if err != nil {
		status, retryAfter := submitStatus(err)
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		writeErr(w, status, err.Error())
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	writeJSON(w, code, submitResponse{Created: created, Campaign: c})
}

// decodeSubmit parses a submit body strictly: an unknown field (a
// misspelt "server") or data after the JSON value is an error, never a
// silently different campaign. An empty body is the all-defaults spec.
func decodeSubmit(body []byte) (submitRequest, error) {
	var req submitRequest
	if len(body) == 0 {
		return req, nil
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return submitRequest{}, fmt.Errorf("invalid JSON: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return submitRequest{}, errors.New("invalid JSON: trailing data after the request body")
	}
	return req, nil
}

// submitStatus maps a typed Submit error to its HTTP status and
// optional Retry-After value.
func submitStatus(err error) (int, string) {
	switch {
	case errors.Is(err, ErrNoKey), errors.Is(err, ErrBadSpec):
		return http.StatusBadRequest, ""
	case errors.Is(err, ErrKeyReuse):
		return http.StatusConflict, ""
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, "1"
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, "5"
	case errors.Is(err, ErrDegraded), errors.Is(err, ErrStorage):
		// The store's write path is down; reads still serve. Clients
		// should retry after the probe loop has had a chance to heal.
		return http.StatusServiceUnavailable, "10"
	default:
		return http.StatusInternalServerError, ""
	}
}

func (s *Scheduler) handleList(w http.ResponseWriter, _ *http.Request) {
	list, err := s.List()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	if list == nil {
		list = []*Campaign{}
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Scheduler) handleGet(w http.ResponseWriter, r *http.Request) {
	c, err := s.Get(r.PathValue("id"))
	if errors.Is(err, ErrNotFound) {
		writeErr(w, http.StatusNotFound, err.Error())
		return
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, c)
}

func (s *Scheduler) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	data, err := s.Result(id)
	switch {
	case errors.Is(err, ErrNotFound):
		writeErr(w, http.StatusNotFound, err.Error())
	case errors.Is(err, ErrNotDone):
		// Tell the poller where the campaign actually is so a script
		// can distinguish "still running" from "failed, stop waiting".
		c, gerr := s.Get(id)
		resp := errorResponse{Error: err.Error()}
		if gerr == nil {
			resp.State = c.State
			if c.State == StateFailed {
				resp.Error = c.Error
			}
		}
		writeJSON(w, http.StatusConflict, resp)
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err.Error())
	default:
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
	}
}

func (s *Scheduler) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}
