package capability_test

import (
	"reflect"
	"testing"

	"repro/internal/capability"
	"repro/internal/datagen"
	"repro/internal/feed"
	"repro/internal/o2wrap"
	"repro/internal/waiswrap"
)

// FuzzInterfaceXML feeds arbitrary text to capability.Unmarshal, which reads
// the interface a wrapper sends at connect time: it never panics, and an
// interface it accepts marshals to text that unmarshals to the same
// interface. The seeds are the interfaces the three wrappers export.
func FuzzInterfaceXML(f *testing.F) {
	for _, i := range []*capability.Interface{
		o2wrap.New("o2artifact", datagen.PaperDB()).ExportInterface(),
		waiswrap.New("xmlartwork", datagen.NewWaisEngine(datagen.PaperWorks())).ExportInterface(),
		feed.New("feed", feed.NewStore()).ExportInterface(),
	} {
		f.Add(capability.Marshal(i))
	}
	f.Add(`<interface name="x"><operation name="bind" kind="algebra"/></interface>`)
	f.Add(`<interface/>`)
	// Every flag position an Fpattern carries: node bind and inst, ref bind,
	// star inst; and the <value pattern=…> spelling of a reference.
	f.Add(`<interface name="flags"><fmodel name="m"><fpattern name="F">` +
		`<node label="Symbol" bind="label" inst="none"><star inst="ground">` +
		`<node label="a" bind="tree" inst="ground"><ref pattern="G" bind="none"/></node></star>` +
		`<star inst="none"><value pattern="G" bind="tree"/></star></node>` +
		`</fpattern><fpattern name="G"><union><leaf label="Int"/><any/></union></fpattern></fmodel>` +
		`<bindcap doc="d" fmodel="m" fpattern="F"/></interface>`)
	f.Fuzz(func(t *testing.T, src string) {
		i, err := capability.Unmarshal(src)
		if err != nil {
			return
		}
		text := capability.Marshal(i)
		again, err := capability.Unmarshal(text)
		if err != nil {
			t.Fatalf("marshalled interface does not unmarshal: %v\n%s", err, text)
		}
		if !reflect.DeepEqual(i, again) {
			t.Fatalf("interface changed through marshal:\n%s\nvs\n%s", text, capability.Marshal(again))
		}
	})
}
