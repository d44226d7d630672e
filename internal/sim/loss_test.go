package sim

import (
	"testing"
	"time"

	"repro/internal/igp"
)

func TestPacketLossShape(t *testing.T) {
	w, err := NewWorld("AS1239", 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := LossConfig{
		Scenarios:        20,
		PacketsPerSecond: 10000,
		Seed:             7,
		Timers:           igp.ClassicTimers(),
	}
	res := PacketLoss(w, cfg)

	if res.FailedPaths == 0 || res.RecoverablePaths == 0 {
		t.Fatalf("no failed paths observed: %+v", res)
	}
	if res.MeanConvergence < 5*time.Second {
		t.Errorf("classic convergence %v implausibly fast", res.MeanConvergence)
	}
	if res.DroppedWithRTR >= res.DroppedNoRecovery {
		t.Errorf("RTR must reduce loss: %v vs %v", res.DroppedWithRTR, res.DroppedNoRecovery)
	}
	if res.SavedPercent <= 0 || res.SavedPercent >= 100 {
		t.Errorf("saved percent = %v, want in (0,100)", res.SavedPercent)
	}
	// On recoverable paths RTR loses only the detection window, so the
	// saving on those is (window-detect)/window, diluted by
	// irrecoverable paths. With classic timers (1 s detect, >6 s
	// window) the overall saving should be substantial.
	if res.SavedPercent < 20 {
		t.Errorf("saved percent = %.1f, expected a substantial reduction", res.SavedPercent)
	}
	t.Logf("convergence %v, failed paths %d (%d recoverable), saved %.1f%%",
		res.MeanConvergence, res.FailedPaths, res.RecoverablePaths, res.SavedPercent)
}

func TestPacketLossTunedSavesLess(t *testing.T) {
	// With sub-second convergence the window shrinks toward the
	// detection time, so RTR's relative saving drops — exactly the
	// paper's argument for why tuning alone is insufficient yet risky.
	w, err := NewWorld("AS1239", 11)
	if err != nil {
		t.Fatal(err)
	}
	classic := PacketLoss(w, LossConfig{Scenarios: 15, PacketsPerSecond: 1000, Seed: 7, Timers: igp.ClassicTimers()})
	tuned := PacketLoss(w, LossConfig{Scenarios: 15, PacketsPerSecond: 1000, Seed: 7, Timers: igp.TunedTimers()})
	if tuned.SavedPercent >= classic.SavedPercent {
		t.Errorf("tuned saving (%.1f%%) should be below classic (%.1f%%)",
			tuned.SavedPercent, classic.SavedPercent)
	}
	if tuned.MeanConvergence >= classic.MeanConvergence {
		t.Error("tuned timers must converge faster")
	}
}

func TestDefaultLossConfig(t *testing.T) {
	cfg := DefaultLossConfig()
	if cfg.Scenarios <= 0 || cfg.PacketsPerSecond <= 0 {
		t.Errorf("bad defaults: %+v", cfg)
	}
	if cfg.Timers.Detection == 0 {
		t.Error("default timers must be set")
	}
}

// DefaultLossConfig uses classic (slow) IGP timers.
func DefaultLossConfig() LossConfig {
	return LossConfig{
		Scenarios:        50,
		PacketsPerSecond: 10000,
		Seed:             1,
		Timers:           igp.ClassicTimers(),
	}
}
