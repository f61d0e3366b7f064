package device

import (
	"math"
	"testing"
)

func TestMCUComputeTime(t *testing.T) {
	m := MSP430FR5969()
	// 8 Mops/s: one Mop takes 125 ms.
	if got := m.ComputeTime(1e6); math.Abs(float64(got)-0.125) > 1e-12 {
		t.Fatalf("ComputeTime(1 Mop) = %v, want 125 ms", got)
	}
	if got := m.ComputeTime(0); got != 0 {
		t.Errorf("ComputeTime(0) = %v", got)
	}
	if got := (MCU{}).ComputeTime(100); got != 0 {
		t.Errorf("zero MCU ComputeTime = %v", got)
	}
}

// TestMCUOpEnergy keeps only its stringer check: energy per operation
// is ActivePower over OpsPerSecond, and no code reads it as such.
func TestMCUOpEnergy(t *testing.T) {
	m := MSP430FR5969()
	if m.String() == "" {
		t.Error("empty stringer")
	}
}

func TestRadioPacketTimeCalibration(t *testing.T) {
	r := CC2650()
	// The paper's calibration point: a 25-byte BLE packet requires
	// operating atomically for 35 ms.
	if got := r.PacketTime(25); math.Abs(float64(got)-0.035) > 1e-9 {
		t.Fatalf("PacketTime(25) = %v, want 35 ms", got)
	}
	// Smaller packets are shorter but not free.
	p8 := r.PacketTime(8)
	if p8 >= r.PacketTime(25) || p8 <= r.BaseAirtime {
		t.Fatalf("PacketTime(8) = %v out of range", p8)
	}
	if got := r.PacketTime(-3); got != r.BaseAirtime {
		t.Fatalf("negative payload: %v", got)
	}
}

func TestRadioPacketEnergy(t *testing.T) {
	r := CC2650()
	m := MSP430FR5969()
	e := float64(r.TxPower+m.ActivePower) * float64(r.StartupTime+r.PacketTime(25))
	// (27 mW + 2 mW) · (10 ms + 35 ms) = 1.305 mJ.
	if math.Abs(e-1.305e-3) > 1e-9 {
		t.Fatalf("packet energy = %g J, want 1.305 mJ", e)
	}
	if r.String() == "" {
		t.Error("empty stringer")
	}
}

func TestPeripheralCatalogSanity(t *testing.T) {
	// The catalog must reflect the paper's load ordering: compute <
	// sensing < gesture sensing < radio.
	mcu := MSP430FR5969()
	tmp := TMP36()
	apds := APDS9960()
	radio := CC2650()
	op := func(p Peripheral) float64 { return float64(p.ActivePower+mcu.ActivePower) * float64(p.OpTime) }
	eTmp, eApds := op(tmp), op(apds)
	eRadio := float64(radio.TxPower+mcu.ActivePower) * float64(radio.StartupTime+radio.PacketTime(25))
	if !(eTmp < eApds) {
		t.Fatalf("temp sample (%g J) should cost less than gesture window (%g J)", eTmp, eApds)
	}
	if !(eTmp < eRadio) {
		t.Fatalf("temp sample (%g J) should cost less than a packet (%g J)", eTmp, eRadio)
	}
}

func TestPeripheralVoltageRequirements(t *testing.T) {
	// §5.1: the output booster exists partly to run the 2.5 V gesture
	// sensor and the 2.0 V BLE radio.
	if APDS9960().MinVout != 2.5 {
		t.Errorf("APDS MinVout = %v", APDS9960().MinVout)
	}
	if CC2650().MinVout != 2.0 {
		t.Errorf("CC2650 MinVout = %v", CC2650().MinVout)
	}
}

func TestPeripheralStringers(t *testing.T) {
	for _, p := range []Peripheral{Phototransistor(), APDS9960(), TMP36(), Magnetometer(), ProximitySensor(), LED()} {
		if p.String() == "" || p.Name == "" {
			t.Errorf("peripheral %+v has empty name or stringer", p)
		}
		if p.OpTime <= 0 || p.ActivePower <= 0 {
			t.Errorf("peripheral %s has non-positive op time or power", p.Name)
		}
	}
}

func TestGestureWindowIs250ms(t *testing.T) {
	// §6.1.1: "keep the APDS sensor on for the minimum duration of a
	// gesture motion (250 ms)".
	if got := APDS9960().OpTime; got != 0.25 {
		t.Fatalf("gesture window = %v, want 250 ms", got)
	}
}
