package scenario_test

import (
	"encoding/json"
	"strings"
	"testing"

	"ecgrid/internal/batch"
	"ecgrid/internal/scenario"
	"ecgrid/internal/trace"
)

// TestExecutionFieldsStayOutOfEncodingAndKey: how a run executes is not part of
// the model. A config that sets every runtime-only execution field must
// encode — and therefore key — exactly like the default config, so one
// simulation has one batch key and one store entry however it is run,
// and the keys of the existing result corpus stay stable.
func TestExecutionFieldsStayOutOfEncodingAndKey(t *testing.T) {
	def := scenario.Default(scenario.ECGRID)
	want, err := json.Marshal(def)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"BruteForce", "NoRxCache", "Trace"} {
		if strings.Contains(string(want), field) {
			t.Fatalf("zero %s leaked into the encoding: %s", field, want)
		}
	}

	exec := def
	exec.Radio.BruteForce = true
	exec.Radio.NoRxCache = true
	exec.Trace = trace.NewRecorder(1)
	got, err := json.Marshal(exec)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("execution fields leaked into the encoding:\n got %s\nwant %s", got, want)
	}
	if batch.Key(exec) != batch.Key(def) {
		t.Fatalf("execution fields changed the batch key: %s, want %s", batch.Key(exec), batch.Key(def))
	}
}
