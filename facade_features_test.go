package sxnm

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
)

// Tests for the facade-level wiring of the Sec. 5 extensions: config-
// declared equational rules, the comparison filter, and parallel runs.

const ruleConfigXML = `
<sxnm-config>
  <candidate name="movie" xpath="movie_database/movies/movie" window="5" threshold="0.95">
    <path id="1" relPath="title/text()"/>
    <path id="2" relPath="@year"/>
    <od pid="1" relevance="0.5"/>
    <od pid="2" relevance="0.5" sim="year"/>
    <key name="title"><part pid="1" order="1" pattern="K1-K4"/></key>
    <rule>sim(1) &gt;= 0.9</rule>
  </candidate>
</sxnm-config>`

const ruleDataXML = `
<movie_database>
  <movies>
    <movie year="1999"><title>Silent River</title></movie>
    <movie year="1901"><title>Silent Rivr</title></movie>
    <movie year="1999"><title>Broken Storm</title></movie>
  </movies>
</movie_database>`

func TestConfigDeclaredRule(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(ruleConfigXML))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Candidate("movie").RuleExpr != "sim(1) >= 0.9" {
		t.Fatalf("RuleExpr = %q", cfg.Candidate("movie").RuleExpr)
	}
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.RunReader(strings.NewReader(ruleDataXML))
	if err != nil {
		t.Fatal(err)
	}
	// The built-in combined threshold 0.95 would reject (years are far
	// apart); the declared rule accepts on the title field alone.
	dups := res.Clusters["movie"].NonSingletons()
	if len(dups) != 1 || len(dups[0].Members) != 2 {
		t.Fatalf("declared rule not applied:\n%s", res.Clusters["movie"])
	}
}

func TestConfigDeclaredRuleSyntaxError(t *testing.T) {
	bad := strings.Replace(ruleConfigXML, "sim(1) &gt;= 0.9", "sim(", 1)
	cfg, err := LoadConfig(strings.NewReader(bad))
	if err != nil {
		t.Fatal(err) // config parsing stores the expression verbatim
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("New should surface rule syntax errors")
	}
}

func TestConfigDeclaredRuleRoundTrip(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(ruleConfigXML))
	if err != nil {
		t.Fatal(err)
	}
	out := cfg.Document().String()
	again, err := LoadConfig(strings.NewReader(out))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, out)
	}
	if again.Candidate("movie").RuleExpr != "sim(1) >= 0.9" {
		t.Errorf("rule lost in round trip: %q", again.Candidate("movie").RuleExpr)
	}
}

func TestUserFieldRuleBeatsConfigRule(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(ruleConfigXML))
	if err != nil {
		t.Fatal(err)
	}
	// A user-provided FieldRule that rejects everything must override
	// the config-declared rule.
	det, err := NewWithOptions(cfg, Options{
		FieldRule: func(_ *Candidate, _ []float64, _ float64, _ bool) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.RunReader(strings.NewReader(ruleDataXML))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Clusters["movie"].NonSingletons()); got != 0 {
		t.Fatalf("user rule should win, found %d groups", got)
	}
}

func TestFilterOptionThroughFacade(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(demoConfig))
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewWithOptions(cfg, Options{UseFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.RunReader(strings.NewReader(demoXML))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters["movie"].NonSingletons()) != 1 {
		t.Error("filter run changed detection outcome")
	}
}

func TestCompileRuleFacade(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(ruleConfigXML))
	if err != nil {
		t.Fatal(err)
	}
	r, err := CompileRule("od >= 0.5 and present(1)", cfg.Candidate("movie"))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Evaluate([]float64{1, 1}, 0.9, 0, false) {
		t.Error("rule evaluation broken")
	}
	if _, err := CompileRule("sim(42) > 0", cfg.Candidate("movie")); err == nil {
		t.Error("unknown path id should fail")
	}
}

func TestRunStreamFacade(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(demoConfig))
	if err != nil {
		t.Fatal(err)
	}
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	streamRes, err := det.RunReader(strings.NewReader(demoXML))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ParseXMLString(demoXML)
	if err != nil {
		t.Fatal(err)
	}
	domRes, err := det.Run(doc)
	if err != nil {
		t.Fatal(err)
	}
	for name := range domRes.Clusters {
		if streamRes.Clusters[name].String() != domRes.Clusters[name].String() {
			t.Errorf("%s: streaming clusters differ", name)
		}
	}
	if _, err := det.RunFile("/nonexistent.xml"); err == nil {
		t.Error("absent file should fail")
	}
}

// TestGKPersistenceFacade writes GK relations from the tokens with
// WriteGK: the bytes are those sxnm -gk-out writes from a run's tables,
// RunFromGK over them gives RunReader's clusters, and the Detector's
// Limits bound the scan.
func TestGKPersistenceFacade(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(demoConfig))
	if err != nil {
		t.Fatal(err)
	}
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	if err := det.WriteGK(strings.NewReader(demoXML), &dump); err != nil {
		t.Fatal(err)
	}
	direct, err := det.RunReader(strings.NewReader(demoXML))
	if err != nil {
		t.Fatal(err)
	}
	var gkOut bytes.Buffer // what sxnm -gk-out writes after the run
	if err := core.WriteGK(&gkOut, &core.KeyGenResult{Tables: direct.Tables}); err != nil {
		t.Fatal(err)
	}
	if dump.Len() == 0 || dump.String() != gkOut.String() {
		t.Errorf("WriteGK wrote %d bytes, sxnm -gk-out %d; they differ", dump.Len(), gkOut.Len())
	}
	fromGK, err := det.RunFromGK(bytes.NewReader(dump.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for name := range direct.Clusters {
		if fromGK.Clusters[name].String() != direct.Clusters[name].String() {
			t.Errorf("%s: GK-loaded clusters differ", name)
		}
	}
	limited, err := NewWithOptions(cfg, Options{Limits: Limits{MaxNodes: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := limited.WriteGK(strings.NewReader(demoXML), io.Discard); !errors.Is(err, ErrLimitExceeded) {
		t.Errorf("WriteGK over MaxNodes: want ErrLimitExceeded, got %v", err)
	}
	if _, err := det.RunFromGK(strings.NewReader("garbage\tline")); err == nil {
		t.Error("bad GK dump should fail")
	}
}
