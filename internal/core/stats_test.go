package core

import (
	"reflect"
	"testing"
)

// TestStatsAddCoversEveryField gives every Stats field a distinct
// non-zero value on two records and requires Add to sum each one,
// PhaseNanos phase by phase. A counter added to Stats without a line in
// Add fails here.
func TestStatsAddCoversEveryField(t *testing.T) {
	var a, b Stats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	typ := va.Type()
	for i := 0; i < typ.NumField(); i++ {
		n := int64(i + 1)
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Int:
			va.Field(i).SetInt(n)
			vb.Field(i).SetInt(100 * n)
		case reflect.Uint64:
			va.Field(i).SetUint(uint64(n))
			vb.Field(i).SetUint(uint64(100 * n))
		case reflect.Map:
			va.Field(i).Set(reflect.ValueOf(map[string]int64{"eval": n, "bound": 2 * n}))
			vb.Field(i).Set(reflect.ValueOf(map[string]int64{"eval": 100 * n, "combine": 3 * n}))
		default:
			t.Fatalf("Stats.%s has kind %v: teach Stats.Add and this test to sum it", f.Name, f.Type.Kind())
		}
	}
	var sum Stats
	sum.Add(a)
	sum.Add(b)
	vs := reflect.ValueOf(sum)
	for i := 0; i < typ.NumField(); i++ {
		name, n := typ.Field(i).Name, int64(i+1)
		switch f := vs.Field(i); f.Kind() {
		case reflect.Int:
			if got := f.Int(); got != 101*n {
				t.Errorf("Add left Stats.%s = %d, want %d", name, got, 101*n)
			}
		case reflect.Uint64:
			if got := f.Uint(); got != uint64(101*n) {
				t.Errorf("Add left Stats.%s = %d, want %d", name, got, 101*n)
			}
		case reflect.Map:
			want := map[string]int64{"eval": 101 * n, "bound": 2 * n, "combine": 3 * n}
			if got := f.Interface(); !reflect.DeepEqual(got, want) {
				t.Errorf("Add left Stats.%s = %v, want %v", name, got, want)
			}
		}
	}
	// The sum's map is its own: adding into it never writes the
	// addend's.
	if a.PhaseNanos["eval"] != int64(typ.NumField()) || len(a.PhaseNanos) != 2 {
		t.Errorf("Add wrote through to the addend's PhaseNanos: %v", a.PhaseNanos)
	}
}
