package capability_test

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/capability"
	"repro/internal/datagen"
	"repro/internal/feed"
	"repro/internal/nodetab"
	"repro/internal/o2wrap"
	"repro/internal/pattern"
	"repro/internal/waiswrap"
)

// The interface oracle: capability.Marshal of every interface a wrapper
// exports — o2wrap's and waiswrap's with the node-table Fpattern nodetab
// adds — checked in byte for byte under testdata/interfaces/. An interface is
// what a wrapper sends at connect time, so any change to how Fpatterns,
// structures or operations marshal shows up here first.

var updateInterfaces = flag.Bool("update", false,
	"rewrite testdata/interfaces/*.xml from this build instead of checking against them")

func exportedInterfaces() map[string]*capability.Interface {
	return map[string]*capability.Interface{
		"o2-paper":     o2wrap.New("o2artifact", datagen.PaperDB()).ExportInterface(),
		"o2-generated": o2wrap.New("o2artifact", datagen.Generate(datagen.DefaultParams(60)).DB).ExportInterface(),
		"wais":         waiswrap.New("xmlartwork", datagen.NewWaisEngine(datagen.PaperWorks())).ExportInterface(),
		"feed":         feed.New("feed", feed.NewStore()).ExportInterface(),
	}
}

func TestExportedInterfacesMarshalAsRecorded(t *testing.T) {
	for name, iface := range exportedInterfaces() {
		got := capability.Marshal(iface)
		path := filepath.Join("testdata", "interfaces", name+".xml")
		if *updateInterfaces {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: interface marshals differently from %s:\n%s", name, path, got)
		}
	}
}

// An Fpattern reference may also be spelled <value pattern=…>, as Figure 6
// writes operation inputs; it reads as a reference and marshals as <ref>.
func TestValueReadsAsRef(t *testing.T) {
	src := `<interface name="v"><fmodel name="m"><fpattern name="F">` +
		`<node label="works"><star inst="none"><value pattern="work" bind="tree"/></star></node>` +
		`</fpattern></fmodel></interface>`
	i, err := capability.Unmarshal(src)
	if err != nil {
		t.Fatal(err)
	}
	want := `<interface name="v"><fmodel name="m"><fpattern name="F">` +
		`<node label="works"><star inst="none"><ref pattern="work" bind="tree"/></star></node>` +
		`</fpattern></fmodel></interface>`
	if again, err := capability.Unmarshal(want); err != nil || capability.Marshal(again) != capability.Marshal(i) {
		t.Errorf("<value> did not read as <ref> (%v):\n%s", err, capability.Marshal(i))
	}
}

// Every structure a wrapper exports survives its text form, the one form
// structures travel in: the model parsed back from its text is the model.
func TestExportedStructuresSurviveTheirText(t *testing.T) {
	models := map[string]*pattern.Model{
		"o2wrap":   o2wrap.New("o2artifact", datagen.PaperDB()).ExportSchema(),
		"waiswrap": waiswrap.New("xmlartwork", datagen.NewWaisEngine(datagen.PaperWorks())).ExportStructure(),
		"feed":     feed.New("feed", feed.NewStore()).ExportStructure(),
		"nodetab":  nodetab.StructureModel(),
	}
	for name, m := range models {
		back, err := pattern.ParseModel(m.String())
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, m)
		}
		if !reflect.DeepEqual(back, m) {
			t.Errorf("%s: model changed through its text:\n%s\nvs\n%s", name, m, back)
		}
	}
}
