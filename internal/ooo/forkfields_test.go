package ooo

import (
	"reflect"
	"testing"

	"acb/internal/bpu"
	"acb/internal/config"
)

// TestForkClassifiesEveryField: every Core field is copied, shared
// read-only, required empty at a fork, or the fork's scheme. A new field
// fails here until Fork handles it and the lists say how, as a new
// robEntry field fails TestROBResetClearsAllFields. The test also checks
// the classes on a fork of a running core: a copied reference field
// points at the fork's own storage, a shared one at the original's, and
// an empty one holds nothing.
func TestForkClassifiesEveryField(t *testing.T) {
	copied := []string{
		"pred", "hier", "rob", "rat", "prf", "freeList", "commitRat",
		"iq", "iqSpare", "waitHead", "waitRecs", "waitFree", "woken", "nParked", "nGated",
		"loads", "stores", "fetchQ", "fqHead", "fqLen", "fetchQCap", "fqMask",
		"fetchPC", "fetchParked", "onWrongPath", "wrongTok", "tokGen",
		"dbgWrongPC", "dbgWrongCyc", "dbgWrongWhy",
		// The last closed context's walk, read only while one is open.
		"ctxNext", "ctxWalkTaken", "walk", "ctxD2Start", "pendingSwtch", "ctxIDGen",
		"cur", "pathHalted", "emu", "emuDone", "events", "outcomes", "outBase", "commitMem",
		"compRing", "compMask", "compMaxLat", "compPending",
		"progress", "stallSlotsThisCycle", "cycle", "retired", "haltSeq", "mutation",
		"s", "perPC", "pipe", "cpi",
	}
	shared := []string{"cfg", "prog", "emuProg"}
	empty := []string{"ctx", "ctxPhase", "pendingClose", "liveCtxs", "snapshots", "pendingSelects", "selHead", "trace"}
	class := map[string]string{"scheme": "the fork's scheme"}
	for name, list := range map[string][]string{"copied": copied, "shared": shared, "empty": empty} {
		for _, f := range list {
			if class[f] != "" {
				t.Fatalf("field %q is both %s and %s", f, class[f], name)
			}
			class[f] = name
		}
	}
	typ := reflect.TypeOf(Core{})
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; class[name] == "" {
			t.Errorf("Core field %q is not classified for Fork (copy it there, or list it as shared or required empty)", name)
		}
		delete(class, typ.Field(i).Name)
	}
	for name := range class {
		t.Errorf("classified field %q is not a Core field", name)
	}

	p, m := buildLoopHammock(50_000)
	c := NewWithMemory(config.Skylake(), p, bpu.NewTAGE(bpu.DefaultTAGEConfig()), nil, m)
	c.EnableCPIStack()
	c.EnablePipeStats()
	if _, err := c.Run(20_000); err != nil {
		t.Fatal(err)
	}
	f := c.Fork(nil)
	cv, fv := reflect.ValueOf(c).Elem(), reflect.ValueOf(f).Elem()
	for _, name := range copied {
		a, b := cv.FieldByName(name), fv.FieldByName(name)
		switch a.Kind() {
		case reflect.Pointer, reflect.Map, reflect.Interface:
			if !a.IsNil() && storage(a) == storage(b) {
				t.Errorf("copied field %q shares the original's storage", name)
			}
		case reflect.Slice:
			if a.Cap() > 0 && storage(a) == storage(b) {
				t.Errorf("copied field %q shares the original's backing array", name)
			}
		}
	}
	for _, name := range shared {
		if a, b := cv.FieldByName(name), fv.FieldByName(name); a.Kind() == reflect.Slice && storage(a) != storage(b) {
			t.Errorf("shared field %q was copied", name)
		}
	}
	for _, name := range empty {
		if b := fv.FieldByName(name); !b.IsZero() && !(b.Kind() == reflect.Slice && b.Len() == 0) {
			t.Errorf("required-empty field %q is not empty in the fork", name)
		}
	}
}

// storage returns the address a pointer, map, interface or slice value
// refers to.
func storage(v reflect.Value) uintptr {
	if v.Kind() == reflect.Interface {
		v = v.Elem()
	}
	return v.Pointer()
}
