package main

import "reflect"

// The benchmark must keep compiling, and keep measuring the same work, after
// the planned removals of bgp.Config.CompactRIB (interned paths become the
// only RIB engine) and core.Config.WarmStart (warm start becomes the only
// pre-event path). So it never names those fields: it sets them by name
// while they exist, and records which path ran.

// setKnob sets the bool field name of the struct *ptr to on and reports
// whether the field exists.
func setKnob(ptr any, name string, on bool) bool {
	f := reflect.ValueOf(ptr).Elem().FieldByName(name)
	if !f.IsValid() || f.Kind() != reflect.Bool || !f.CanSet() {
		return false
	}
	f.SetBool(on)
	return true
}

// knob reads the bool field name of the struct *ptr; ok is false when the
// field does not exist.
func knob(ptr any, name string) (on, ok bool) {
	f := reflect.ValueOf(ptr).Elem().FieldByName(name)
	if !f.IsValid() || f.Kind() != reflect.Bool {
		return false, false
	}
	return f.Bool(), true
}
