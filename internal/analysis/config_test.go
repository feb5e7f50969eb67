package analysis

import "testing"

func TestDetcheckScoping(t *testing.T) {
	cfg := DefaultConfig()
	if !cfg.detcheckApplies("thermogater/internal/sim") {
		t.Error("sim should be policed")
	}
	if cfg.detcheckApplies("thermogater/internal/telemetry") {
		t.Error("telemetry is allowlisted")
	}
	if cfg.detcheckApplies("thermogater/internal/report") {
		t.Error("report is not a simulation package")
	}
}
