// Package statetest checks that a checkpoint state digest covers every
// field of the state it identifies. It is imported by tests only.
package statetest

import (
	"fmt"
	"reflect"
	"testing"
)

// RequireCovered perturbs, one at a time, every leaf reachable from
// root (a non-nil pointer into the state hash digests) and requires
// hash to change, then restores the leaf and requires the original
// digest back. Leaves are scalars and array elements, element 0 of a
// non-empty slice (walked as a leaf tree) and, for an empty slice, one
// appended zero element. A nil pointer fails the test: the caller's
// state must populate every optional part.
func RequireCovered(t testing.TB, root any, hash func() uint64) {
	t.Helper()
	want := hash()
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				t.Fatalf("%s is nil; populate it so its leaves can be checked", path)
			}
			walk(path, v.Elem())
			return
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
			return
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
			return
		case reflect.Slice:
			if v.Len() > 0 {
				walk(path+"[0]", v.Index(0))
				return
			}
		}
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			v.SetFloat(v.Float() + 1)
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Slice:
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
		default:
			t.Fatalf("%s: no perturbation for kind %s", path, v.Kind())
		}
		if hash() == want {
			t.Errorf("hash ignores %s", path)
		}
		v.Set(old)
		if got := hash(); got != want {
			t.Fatalf("hash %016x after restoring %s, want %016x", got, path, want)
		}
	}
	walk(reflect.TypeOf(root).Elem().Name(), reflect.ValueOf(root))
}
