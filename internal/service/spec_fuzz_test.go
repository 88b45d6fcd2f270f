package service

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// FuzzSpecDecode holds the submit path to its contract under arbitrary
// bodies: the strict decode and Submit on a memory store may accept or
// reject, but never panic, and every accepted spec must re-validate and
// survive a JSON round trip through the same strict decode unchanged.
func FuzzSpecDecode(f *testing.F) {
	spec, _ := json.Marshal(tinySpec())
	f.Add([]byte(`{"key": "k", "spec": ` + string(spec) + `}`))
	f.Add([]byte(`{"spec": {"designs": ["linux", "contiguitas"], "mems_mib": [64, 128], "jitters": [0, 0.2]}}`))
	f.Add([]byte(`{"spec": {"server": 5}}`))
	f.Add([]byte(`{"spec": {}} {}`))
	f.Add([]byte(`{"spec": {"jitters": [-0, 1e-300], "deadline_sec": 18446744073709551615}}`))
	f.Add([]byte(`{"spec": {"servers": -1}}`))
	f.Add([]byte(`{"spec": {"designs": ["contiguitas"], "mems_mib": [16, 31]}}`))
	f.Add([]byte(`{"spec": {"servers": 1000000, "mems_mib": [1048576], "ticks_max": 1000000}}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeSubmit(body)
		if err != nil {
			return
		}
		if req.Key == "" {
			req.Key = "fuzz"
		}
		s := NewScheduler(SchedulerConfig{Store: NewMemory()})
		defer s.Drain()
		c, _, err := s.Submit(req.Spec, req.Key)
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("rejection not typed: %v", err)
			}
			return
		}
		if err := c.Spec.validate(); err != nil {
			t.Fatalf("accepted spec fails re-validation: %v", err)
		}
		if !reflect.DeepEqual(c.Spec.normalized(), c.Spec) {
			t.Fatalf("accepted spec is not normalized: %+v", c.Spec)
		}
		data, err := json.Marshal(submitRequest{Key: req.Key, Spec: c.Spec})
		if err != nil {
			t.Fatalf("marshal accepted spec: %v", err)
		}
		back, err := decodeSubmit(data)
		if err != nil {
			t.Fatalf("strict decode of an accepted spec: %v", err)
		}
		if !reflect.DeepEqual(back.Spec, c.Spec) || back.Spec.fingerprint() != c.Spec.fingerprint() {
			t.Fatalf("JSON round trip drifted: %+v vs %+v", back.Spec, c.Spec)
		}
	})
}
