package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"capybara/internal/fleetsvc"
)

// The daemon's command-line client. Scripting contract: -submit prints
// exactly the new job's ID on stdout; -wait writes the report to -o (or
// stdout) and a one-line "job ID done: N chunks (L loaded, C computed)"
// summary to stderr; -status prints the status JSON; everything else
// chatty goes to stderr.

func runClient(o *options) error {
	c := &apiClient{
		base: strings.TrimRight(o.httpURL, "/"),
		hc:   &http.Client{Timeout: 30 * time.Second},
	}
	switch {
	case o.submit:
		return clientSubmit(c, o)
	case o.waitID != "":
		return clientWait(c, o, o.waitID)
	case o.statusID != "":
		return clientStatus(c, o.statusID)
	case o.cancelID != "":
		return clientCancel(c, o.cancelID)
	}
	return fmt.Errorf("no client action") // unreachable past validate
}

type apiClient struct {
	base string
	hc   *http.Client
}

// do issues one request and decodes the JSON response into out (unless
// out is nil). Non-2xx responses are surfaced with the server's error
// message.
func (c *apiClient) do(method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var apiErr struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, apiErr.Error)
		}
		return fmt.Errorf("%s %s: %s", method, path, resp.Status)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func clientSubmit(c *apiClient, o *options) error {
	body, err := json.Marshal(fleetsvc.SubmitRequest{
		N: o.n, Seed: o.seed, Scale: o.scale, ChunkSize: o.chunk,
	})
	if err != nil {
		return err
	}
	var st fleetsvc.JobStatus
	if err := c.do("POST", "/api/v1/jobs", body, &st); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "capyfleet: submitted %s: n=%d seed=%d scale=%g (%d chunks, spec %.12s)\n",
		st.ID, st.Spec.N, st.Spec.Seed, st.Spec.Scale, st.Chunks, st.SpecHash)
	fmt.Println(st.ID)
	return nil
}

// clientWait polls until the job reaches a terminal state, then fetches
// the report. Connection errors are retried indefinitely — the daemon
// being down is expected mid-restart, and the job's fate is in the
// store, not the process. API errors (unknown job) stop immediately.
func clientWait(c *apiClient, o *options, id string) error {
	var st fleetsvc.JobStatus
	downSince := time.Time{}
	for {
		err := c.do("GET", "/api/v1/jobs/"+id, nil, &st)
		if err != nil {
			if strings.Contains(err.Error(), "no job") {
				return err
			}
			if downSince.IsZero() {
				downSince = time.Now()
				fmt.Fprintf(os.Stderr, "capyfleet: daemon unreachable (%v), retrying\n", err)
			}
		} else {
			downSince = time.Time{}
			switch st.State {
			case fleetsvc.StateDone:
				return clientFetchReport(c, o, st)
			case fleetsvc.StateFailed:
				return fmt.Errorf("job %s failed: %s", id, st.Error)
			case fleetsvc.StateCanceled:
				return fmt.Errorf("job %s was canceled", id)
			}
		}
		time.Sleep(250 * time.Millisecond)
	}
}

func clientFetchReport(c *apiClient, o *options, st fleetsvc.JobStatus) error {
	format := ""
	if o.asJSON {
		format = "?format=json"
	}
	req, err := http.NewRequest("GET", c.base+"/api/v1/jobs/"+st.ID+"/report"+format, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fetching report: %s: %s", resp.Status, data)
	}
	err = writeOutput(o.out, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "capyfleet: job %s done: %d chunks (%d loaded, %d computed)\n",
		st.ID, st.Chunks, st.Loaded, st.Computed)
	return nil
}

func clientStatus(c *apiClient, id string) error {
	var raw json.RawMessage
	if err := c.do("GET", "/api/v1/jobs/"+id+"?cohorts=1", nil, &raw); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, raw, "", "  "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	_, err := os.Stdout.Write(buf.Bytes())
	return err
}

func clientCancel(c *apiClient, id string) error {
	var st fleetsvc.JobStatus
	if err := c.do("POST", "/api/v1/jobs/"+id+"/cancel", nil, &st); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "capyfleet: job %s is now %s\n", st.ID, st.State)
	return nil
}
