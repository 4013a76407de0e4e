package simtime

import (
	"testing"
	"testing/quick"
)

func TestUnitRatios(t *testing.T) {
	if Microsecond != 1000*Nanosecond {
		t.Errorf("Microsecond = %d ns, want 1000", Microsecond)
	}
	if Millisecond != 1000*Microsecond {
		t.Errorf("Millisecond = %d µs-equivalent, want 1000", Millisecond/Microsecond)
	}
	if Second != 1000*Millisecond {
		t.Errorf("Second = %d ms-equivalent, want 1000", Second/Millisecond)
	}
}

func TestConstructors(t *testing.T) {
	if got := Microseconds(750); got != 750*Microsecond {
		t.Errorf("Microseconds(750) = %v", got)
	}
	if got := Milliseconds(25); got != 25*Millisecond {
		t.Errorf("Milliseconds(25) = %v", got)
	}
	if got := Seconds(1.5); got != 1500*Millisecond {
		t.Errorf("Seconds(1.5) = %v", got)
	}
}

func TestAddSub(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(Milliseconds(3))
	if t1 != Time(3*Millisecond) {
		t.Fatalf("Add: got %v", t1)
	}
	if d := t1.Sub(t0); d != Milliseconds(3) {
		t.Fatalf("Sub: got %v", d)
	}
	if !t0.Before(t1) || !t1.After(t0) {
		t.Fatal("Before/After disagree with Add")
	}
}

func TestConversions(t *testing.T) {
	d := Microseconds(2500)
	if d.Micros() != 2500 {
		t.Errorf("Micros = %v", d.Micros())
	}
	if d.Millis() != 2.5 {
		t.Errorf("Millis = %v", d.Millis())
	}
	if Seconds(2).SecondsF() != 2 {
		t.Errorf("SecondsF = %v", Seconds(2).SecondsF())
	}
	tm := Time(0).Add(Microseconds(1))
	if tm.Micros() != 1 {
		t.Errorf("Time.Micros = %v", tm.Micros())
	}
	if Time(Second).SecondsF() != 1 {
		t.Errorf("Time.SecondsF = %v", Time(Second).SecondsF())
	}
}

func TestScale(t *testing.T) {
	d := Microseconds(750)
	if got := d.Scale(0.5); got != Microseconds(375) {
		t.Errorf("Scale(0.5) = %v", got)
	}
	if got := d.Scale(2); got != Microseconds(1500) {
		t.Errorf("Scale(2) = %v", got)
	}
	// Rounding: 3 ns * (1/3) should round to 1 ns.
	if got := Duration(3).Scale(1.0 / 3.0); got != 1 {
		t.Errorf("Scale rounding: got %v", got)
	}
}

func TestNeverIsLaterThanEverything(t *testing.T) {
	if !Time(1 << 50).Before(Never) {
		t.Fatal("Never is not after a huge time")
	}
}

func TestString(t *testing.T) {
	if got := Milliseconds(25).String(); got != "25ms" {
		t.Errorf("Duration.String = %q", got)
	}
	if got := Time(25 * Millisecond).String(); got != "25ms" {
		t.Errorf("Time.String = %q", got)
	}
}

// Property: Add and Sub are inverses for in-range values.
func TestQuickAddSubInverse(t *testing.T) {
	f := func(base int32, delta int32) bool {
		t0 := Time(base)
		d := Duration(delta)
		return t0.Add(d).Sub(t0) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ordering of times is consistent with integer ordering.
func TestQuickOrdering(t *testing.T) {
	f := func(a, b int64) bool {
		ta, tb := Time(a), Time(b)
		if a < b {
			return ta.Before(tb) && tb.After(ta)
		}
		return !ta.Before(tb) || a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
