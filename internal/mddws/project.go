package mddws

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/odbis/odbis/internal/etl"
	"github.com/odbis/odbis/internal/mddws/process"
	"github.com/odbis/odbis/internal/metamodel"
	"github.com/odbis/odbis/internal/metamodel/cwm"
	"github.com/odbis/odbis/internal/storage"
	"github.com/odbis/odbis/internal/storage/orm"
)

// Errors returned by the project service.
var (
	ErrNoProject = errors.New("mddws: no such project")
	ErrExists    = errors.New("mddws: project already exists")
	ErrNoModel   = errors.New("mddws: project has no conceptual model")
)

// projectRow is the persisted project record; the conceptual model is
// stored as its XMI export.
type projectRow struct {
	Name     string `orm:"name,pk"`
	Tenant   string `orm:"tenant,index"`
	Phase    string
	ModelXML string
	Created  time.Time
	Updated  time.Time
}

// Project is a DW development project managed by MDDWS.
type Project struct {
	Name    string
	Tenant  string
	Phase   string
	Created time.Time
	Updated time.Time
}

// Service is the MDDWS project-management and design service.
type Service struct {
	projects *orm.Mapper[projectRow]
	runsMu   sync.Mutex
	// runs keeps in-flight 2TUP process runs keyed by project.
	//odbis:guardedby runsMu
	runs map[string]*process.Run
	now  func() time.Time
}

// NewService opens the service over the shared engine.
func NewService(e *storage.Engine) (*Service, error) {
	m, err := orm.NewMapper[projectRow](e, "mddws_projects") //odbis:ignore tenantisolation -- MDDWS design projects are platform artifacts, not tenant data
	if err != nil {
		return nil, err
	}
	return &Service{projects: m, runs: make(map[string]*process.Run), now: time.Now}, nil
}

// CreateProject registers a DW project for a tenant.
func (s *Service) CreateProject(name, tenantID string) (*Project, error) {
	if name == "" {
		return nil, fmt.Errorf("mddws: project needs a name")
	}
	if _, ok, _ := s.projects.Get(name); ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, name)
	}
	now := s.now().UTC()
	row := projectRow{Name: name, Tenant: tenantID, Phase: "inception", Created: now, Updated: now}
	if err := s.projects.Insert(&row); err != nil {
		return nil, err
	}
	return projectFromRow(row), nil
}

func projectFromRow(r projectRow) *Project {
	return &Project{Name: r.Name, Tenant: r.Tenant, Phase: r.Phase, Created: r.Created, Updated: r.Updated}
}

// Project returns a project by name.
func (s *Service) Project(name string) (*Project, error) {
	row, ok, err := s.projects.Get(name)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoProject, name)
	}
	return projectFromRow(row), nil
}

// Projects lists project names for a tenant ("" for all), sorted.
func (s *Service) Projects(tenantID string) ([]string, error) {
	var rows []projectRow
	var err error
	if tenantID == "" {
		rows, err = s.projects.All()
	} else {
		rows, err = s.projects.Where("tenant", tenantID)
	}
	if err != nil {
		return nil, err
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.Name
	}
	sort.Strings(out)
	return out, nil
}

// DeleteProject removes a project and its process run.
func (s *Service) DeleteProject(name string) error {
	ok, err := s.projects.Delete(name)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoProject, name)
	}
	s.runsMu.Lock()
	delete(s.runs, name)
	s.runsMu.Unlock()
	return nil
}

// SaveConceptualModel stores the project's CIM (validated first).
func (s *Service) SaveConceptualModel(name string, cim *metamodel.Model) error {
	if cim.Metamodel() != cwm.Conceptual {
		return fmt.Errorf("mddws: conceptual model must conform to %s", cwm.ConceptualName)
	}
	if err := cim.Validate(); err != nil {
		return err
	}
	row, ok, err := s.projects.Get(name)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoProject, name)
	}
	xml, err := cim.ExportString()
	if err != nil {
		return err
	}
	row.ModelXML = xml
	row.Phase = "elaboration"
	row.Updated = s.now().UTC()
	return s.projects.Save(&row)
}

// ConceptualModel loads the project's CIM.
func (s *Service) ConceptualModel(name string) (*metamodel.Model, error) {
	row, ok, err := s.projects.Get(name)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoProject, name)
	}
	if row.ModelXML == "" {
		return nil, fmt.Errorf("%w: %s", ErrNoModel, name)
	}
	return metamodel.ImportString(cwm.Conceptual, row.ModelXML)
}

// StartProcess begins the 2TUP run for the project's DW layer, one
// realization iteration per fact in the conceptual model.
func (s *Service) StartProcess(name string) (*process.Run, error) {
	cim, err := s.ConceptualModel(name)
	if err != nil {
		return nil, err
	}
	var components []string
	for _, f := range cim.ElementsOf("FactConcept") {
		components = append(components, f.Name())
	}
	if len(components) == 0 {
		return nil, fmt.Errorf("mddws: project %s has no facts to realize", name)
	}
	run, err := process.NewRun("data-warehouse", components)
	if err != nil {
		return nil, err
	}
	s.runsMu.Lock()
	s.runs[name] = run
	s.runsMu.Unlock()
	return run, nil
}

// ProcessRun returns the project's in-flight run.
func (s *Service) ProcessRun(name string) (*process.Run, bool) {
	s.runsMu.Lock()
	defer s.runsMu.Unlock()
	run, ok := s.runs[name]
	return run, ok
}

// Build runs the full model-driven derivation for the project and marks
// the construction phase. The 2TUP run (when started) is driven to
// completion, mirroring Fig. 3's disciplines × iterations.
func (s *Service) Build(name string) (*BuildResult, error) {
	cim, err := s.ConceptualModel(name)
	if err != nil {
		return nil, err
	}
	result, err := BuildFromConceptual(cim)
	if err != nil {
		return nil, err
	}
	if run, ok := s.ProcessRun(name); ok && !run.Done() {
		if err := run.RunAll(nil); err != nil {
			return nil, err
		}
	}
	if err := s.setPhase(name, "construction"); err != nil {
		return nil, err
	}
	return result, nil
}

// Deployer abstracts the target of a deployment: the shared DB or a
// tenant catalog (both expose a context-bound Exec for DDL).
type Deployer interface {
	Exec(ctx context.Context, query string, args ...storage.Value) (int, error)
}

// Deploy executes the generated DDL against the deployment target and
// marks the transition phase. It returns the number of statements run.
// ctx bounds the whole deployment; a cancelled context stops between
// statements (each statement is its own transaction).
func (s *Service) Deploy(ctx context.Context, name string, result *BuildResult, target Deployer) (int, error) {
	n := 0
	for _, ddl := range result.Artifacts.DDL {
		if err := ctx.Err(); err != nil {
			return n, err
		}
		if _, err := target.Exec(ctx, ddl); err != nil {
			return n, fmt.Errorf("mddws: deploy %s: %w", name, err)
		}
		n++
	}
	if err := s.setPhase(name, "transition"); err != nil {
		return n, err
	}
	return n, nil
}

// setPhase records the project's lifecycle phase; a project deleted in
// the meantime is left deleted.
func (s *Service) setPhase(name, phase string) error {
	row, ok, err := s.projects.Get(name)
	if err != nil || !ok {
		return err
	}
	row.Phase = phase
	row.Updated = s.now().UTC()
	if err := s.projects.Save(&row); err != nil {
		return fmt.Errorf("mddws: project %s: record phase %s: %w", name, phase, err)
	}
	return nil
}

// LoadJob materializes a generated LoadPlan into a runnable etl.Job: the
// "code completion" step the paper requires after MDA generation. The
// caller supplies the staging source (e.g. a CSV upload) and the engine+
// table mapping for dimension lookups and the fact sink.
type LoadJobConfig struct {
	Plan   LoadPlan
	Source etl.Source
	Engine *storage.Engine
	// TableFor maps a logical table name to the physical one (identity
	// when nil); tenant catalogs pass Catalog.Physical.
	TableFor func(string) string
	// Lookups configures each generated lookup step: the input field to
	// match, the dimension table key, and the fields to copy.
	Lookups map[string]etl.Lookup
}

// BuildLoadJob assembles the job.
func BuildLoadJob(cfg LoadJobConfig) (*etl.Job, error) {
	if cfg.Source == nil || cfg.Engine == nil {
		return nil, fmt.Errorf("mddws: load job needs a source and an engine")
	}
	tableFor := cfg.TableFor
	if tableFor == nil {
		tableFor = func(s string) string { return s }
	}
	pipeline := &etl.Pipeline{Source: cfg.Source}
	for _, step := range cfg.Plan.Steps {
		parts := strings.SplitN(step, ":", 2)
		op := parts[0]
		switch op {
		case "extract":
			// The source itself is the extract step.
		case "lookup":
			lk, ok := cfg.Lookups[parts[1]]
			if !ok {
				// Lookup configuration is part of code completion; skip
				// unconfigured lookups rather than fail, mirroring the
				// "semi-complete code" semantics.
				continue
			}
			pipeline.Transforms = append(pipeline.Transforms, lk)
		case "load":
			pipeline.Sink = &etl.TableSink{
				Engine: cfg.Engine,
				Table:  tableFor(cfg.Plan.FactTable),
			}
		}
	}
	if pipeline.Sink == nil {
		return nil, fmt.Errorf("mddws: plan %s has no load step", cfg.Plan.Activity)
	}
	return &etl.Job{
		Name:  cfg.Plan.Activity,
		Tasks: []etl.Task{{Name: "load", Pipeline: pipeline}},
	}, nil
}
