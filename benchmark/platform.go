package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/odbis/odbis"
	"github.com/odbis/odbis/client"
	"github.com/odbis/odbis/internal/obs"
	"github.com/odbis/odbis/internal/storage"
)

const (
	adminUser = "root"
	adminPass = "benchpass"
	userPass  = "pw"
	// loadBatch is the rows per multi-row INSERT during set-up.
	loadBatch = 500
)

// env is one booted platform with both front doors on loopback and one
// designer user per tenant. Every workload boots its own.
type env struct {
	platform front
	httpSrv  *http.Server
	httpWG   sync.WaitGroup
	httpBase string
	hc       *http.Client
	tenants  []*tenantEnv
}

// front is what the benchmark needs from a running platform:
// *odbis.Platform for the end-to-end runs, the assembled stack for the
// traced pass.
type front interface {
	Login(username, password string) (*odbis.Session, string, error)
	Handler() http.Handler
	ProtoAddr() net.Addr
	Close() error
}

// opener boots a platform, on disk when dataDir is not empty.
type opener func(dataDir string) (front, error)

// openPlatform is the product's own boot path.
func openPlatform(dataDir string) (front, error) {
	return odbis.Open(odbis.Options{
		DataDir:       dataDir,
		AdminUser:     adminUser,
		AdminPassword: adminPass,
		ListenProto:   "127.0.0.1:0",
	})
}

// tenantEnv is one tenant's credentials, generated data and pooled
// binary client. A protocol connection authenticates as one tenant, so
// each tenant needs its own pool.
type tenantEnv struct {
	name  string
	user  string
	token string
	bin   *client.Client
	data  *dataset
}

func tenantName(i int) string { return fmt.Sprintf("t%02d", i) }

// boot opens a platform, serves HTTP beside the binary listener, and
// creates nTenants tenants on the standard plan, each with a designer
// user.
func boot(ctx context.Context, open opener, dataDir string, nTenants int) (*env, error) {
	p, err := open(dataDir)
	if err != nil {
		return nil, err
	}
	e := &env{platform: p}
	if err := e.serveHTTP(); err != nil {
		p.Close()
		return nil, err
	}
	root, _, err := p.Login(adminUser, adminPass)
	if err != nil {
		e.close()
		return nil, err
	}
	for i := 0; i < nTenants; i++ {
		t := &tenantEnv{name: tenantName(i), user: tenantName(i) + "-designer"}
		if _, err := root.CreateTenant(ctx, t.name, strings.ToUpper(t.name), "standard"); err != nil {
			e.close()
			return nil, err
		}
		err := root.CreateUser(ctx, odbis.UserSpec{
			Username: t.user, Password: userPass, Tenant: t.name,
			Roles: []string{odbis.RoleDesigner},
		})
		if err != nil {
			e.close()
			return nil, err
		}
		e.tenants = append(e.tenants, t)
	}
	if err := e.login(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// serveHTTP mounts the platform handler on a loopback listener with a
// keep-alive client pool as wide as the client count.
func (e *env) serveHTTP() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.httpBase = "http://" + ln.Addr().String()
	e.httpSrv = &http.Server{Handler: e.platform.Handler()}
	e.httpWG.Add(1)
	go func() {
		defer e.httpWG.Done()
		// Serve returns ErrServerClosed after close(); nothing to report.
		_ = e.httpSrv.Serve(ln)
	}()
	e.hc = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        numClients,
		MaxIdleConnsPerHost: numClients,
	}}
	return nil
}

// login mints a token per tenant and opens its binary pool. Pools dial
// lazily; the warm-up fills them.
func (e *env) login() error {
	for _, t := range e.tenants {
		_, token, err := e.platform.Login(t.user, userPass)
		if err != nil {
			return err
		}
		t.token = token
		if err := e.dial(t); err != nil {
			return err
		}
	}
	return nil
}

// dial opens the tenant's binary pool, one connection per client.
func (e *env) dial(t *tenantEnv) error {
	var err error
	t.bin, err = client.Dial(client.Config{
		Addr: e.platform.ProtoAddr().String(), Token: t.token, MaxConns: numClients,
	})
	return err
}

// redial closes every tenant's binary pool, waits until the server has
// ended those sessions, and opens fresh pools.
func (e *env) redial() error {
	for _, t := range e.tenants {
		t.bin.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for obs.Snapshot().Gauges["odbis_proto_sessions_open"] > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("protocol sessions still open 5s after their clients closed")
		}
		time.Sleep(time.Millisecond)
	}
	// A session lowers the gauge just before it publishes its frame and
	// byte counts, and nothing observable follows the publication.
	time.Sleep(2 * time.Millisecond)
	for _, t := range e.tenants {
		if err := e.dial(t); err != nil {
			return err
		}
	}
	return nil
}

// close stops both doors and the platform and waits for the HTTP
// goroutine. A durable platform checkpoints here.
func (e *env) close() error {
	for _, t := range e.tenants {
		if t.bin != nil {
			t.bin.Close()
		}
	}
	e.hc.CloseIdleConnections()
	e.httpSrv.Close()
	e.httpWG.Wait()
	return e.platform.Close()
}

// load creates the tenant's sales table through the binary door and
// fills it from the generated dataset with multi-row INSERTs.
func (e *env) load(ctx context.Context, t *tenantEnv) error {
	for _, ddl := range []string{salesDDL, salesIndex} {
		if _, err := t.bin.Query(ctx, ddl); err != nil {
			return fmt.Errorf("load %s: %w", t.name, err)
		}
	}
	rows := t.data.rows
	for len(rows) > 0 {
		n := min(loadBatch, len(rows))
		var sql strings.Builder
		sql.WriteString("INSERT INTO sales (id, region, category, qty, amount) VALUES ")
		args := make([]storage.Value, 0, 5*n)
		for i, r := range rows[:n] {
			if i > 0 {
				sql.WriteString(", ")
			}
			sql.WriteString("(?, ?, ?, ?, ?)")
			args = append(args, r.values()...)
		}
		res, err := t.bin.Query(ctx, sql.String(), args...)
		if err != nil {
			return fmt.Errorf("load %s: %w", t.name, err)
		}
		if res.Affected != n {
			return fmt.Errorf("load %s: inserted %d of %d rows", t.name, res.Affected, n)
		}
		rows = rows[n:]
	}
	return nil
}

// --- doors ---

// binQuery runs one statement over the binary door.
func (t *tenantEnv) binQuery(ctx context.Context, sql string, args []storage.Value) ([]storage.Row, int, error) {
	res, err := t.bin.Query(ctx, sql, args...)
	if err != nil {
		return nil, 0, err
	}
	return res.Rows, res.Affected, nil
}

// httpJSON sends one request with the tenant's bearer token and decodes
// a 200 response into out. Any other status is an error, so 503 shed
// responses count as failed operations.
func (e *env) httpJSON(ctx context.Context, t *tenantEnv, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, e.httpBase+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+t.token)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: http %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return err
	}
	// Drain so the keep-alive connection is reused.
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

type queryBody struct {
	SQL  string          `json:"sql"`
	Args []storage.Value `json:"args,omitempty"`
}

type queryReply struct {
	Rows     []storage.Row `json:"rows"`
	Affected int           `json:"affected"`
}

// httpQuery runs one statement over POST /api/query.
func (e *env) httpQuery(ctx context.Context, t *tenantEnv, sql string, args []storage.Value) ([]storage.Row, int, error) {
	var out queryReply
	err := e.httpJSON(ctx, t, http.MethodPost, "/api/query", queryBody{SQL: sql, Args: args}, &out)
	return out.Rows, out.Affected, err
}
