package apps_test

import (
	"testing"
	"time"

	"barbican/internal/apps"
	"barbican/internal/core"
)

func testbed(t *testing.T) *core.Testbed {
	t.Helper()
	tb, err := core.NewTestbed(core.TestbedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestHTTPServerServesPage(t *testing.T) {
	tb := testbed(t)
	srv, err := apps.NewHTTPServer(tb.Target)
	if err != nil {
		t.Fatal(err)
	}
	client := apps.NewHTTPClient(tb.Client)

	var result apps.FetchResult
	connected, firstByte := false, false
	err = client.Get(tb.Target.IP(), 80,
		func() { connected = true },
		func() { firstByte = true },
		func(r apps.FetchResult) { result = r })
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Kernel.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if !connected || !firstByte {
		t.Errorf("callbacks: connected=%v firstByte=%v", connected, firstByte)
	}
	if result.Err != nil || result.Status != 200 || result.BodyBytes != apps.PageSize {
		t.Errorf("fetch result = %+v", result)
	}
	st := srv.Stats()
	if st.Connections != 1 || st.Requests != 1 || st.BytesServed != apps.PageSize {
		t.Errorf("server stats = %+v", st)
	}
}

func TestHTTPServerRejectsNonGET(t *testing.T) {
	tb := testbed(t)
	srv, err := apps.NewHTTPServer(tb.Target)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := tb.Client.DialTCP(tb.Target.IP(), 80)
	if err != nil {
		t.Fatal(err)
	}
	var resp []byte
	conn.OnConnect = func() {
		if err := conn.Write([]byte("DELETE / HTTP/1.0\r\n\r\n")); err != nil {
			t.Error(err)
		}
	}
	conn.OnData = func(p []byte) { resp = append(resp, p...) }
	if err := tb.Kernel.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(resp) == 0 || string(resp[:17]) != "HTTP/1.0 400 Bad " {
		t.Errorf("response = %q", resp)
	}
	if srv.Stats().BadRequests != 1 {
		t.Errorf("BadRequests = %d", srv.Stats().BadRequests)
	}
}

func TestHTTPServerSequentialFetches(t *testing.T) {
	tb := testbed(t)
	if _, err := apps.NewHTTPServer(tb.Target); err != nil {
		t.Fatal(err)
	}
	client := apps.NewHTTPClient(tb.Client)
	fetches := 0
	var issue func()
	issue = func() {
		err := client.Get(tb.Target.IP(), 80, nil, nil, func(r apps.FetchResult) {
			if r.Err == nil && r.Status == 200 {
				fetches++
			}
			if fetches < 5 {
				issue()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	issue()
	if err := tb.Kernel.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fetches != 5 {
		t.Errorf("fetches = %d, want 5", fetches)
	}
}

func TestHTTPFetchFromClosedPortReportsError(t *testing.T) {
	tb := testbed(t)
	client := apps.NewHTTPClient(tb.Client)
	var result apps.FetchResult
	got := false
	err := client.Get(tb.Target.IP(), 8080, nil, nil, func(r apps.FetchResult) {
		result = r
		got = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Kernel.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if !got || result.Err == nil {
		t.Errorf("fetch to closed port: got=%v result=%+v", got, result)
	}
}

func TestUDPSinkCounts(t *testing.T) {
	tb := testbed(t)
	sink, err := apps.NewUDPSink(tb.Target, 5001)
	if err != nil {
		t.Fatal(err)
	}
	sock, err := tb.Client.BindUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		sock.SendTo(tb.Target.IP(), 5001, make([]byte, 100))
	}
	if err := tb.Kernel.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	d, b := sink.Received()
	if d != 3 || b != 300 {
		t.Errorf("Received = %d, %d; want 3, 300", d, b)
	}
	sink.Close()
}
