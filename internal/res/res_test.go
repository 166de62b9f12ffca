package res

import "testing"

func TestParseRef(t *testing.T) {
	tests := []struct {
		ref      string
		wantKind Kind
		wantName string
		wantErr  bool
	}{
		{"@id/btn", KindID, "btn", false},
		{"@+id/btn", KindID, "btn", false},
		{"@layout/main", KindLayout, "main", false},
		{"@string/app_name", KindString, "app_name", false},
		{"@drawable/icon", KindDrawable, "icon", false},
		{"@menu/drawer", KindMenu, "drawer", false},
		{"id/btn", 0, "", true},
		{"@bogus/btn", 0, "", true},
		{"@id/", 0, "", true},
		{"@/name", 0, "", true},
		{"@id", 0, "", true},
		{"", 0, "", true},
	}
	for _, tc := range tests {
		k, n, err := ParseRef(tc.ref)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseRef(%q): want error, got %v/%v", tc.ref, k, n)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseRef(%q): %v", tc.ref, err)
			continue
		}
		if k != tc.wantKind || n != tc.wantName {
			t.Errorf("ParseRef(%q) = %v,%q; want %v,%q", tc.ref, k, n, tc.wantKind, tc.wantName)
		}
	}
}
