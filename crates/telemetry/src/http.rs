//! A minimal HTTP/1.0 server — a tiny method+path router — plus the
//! Prometheus scrape endpoint and one-shot client built on top of it.
//!
//! Deliberately tiny: one listener thread, one blocking connection at a
//! time, HTTP/1.0 semantics (close after response). The listener polls
//! with a short accept timeout (the same nonblocking-accept pattern as
//! the dist coordinator's serve loop) so shutdown is prompt. The metrics
//! endpoint renders the registry fresh on every request, so it needs no
//! coordination with the code updating the metrics; the same router
//! carries the control-plane JSON API in `dx-service`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::json::invalid;
use crate::MetricsRegistry;

/// Accept-poll interval; bounds shutdown latency.
const POLL: Duration = Duration::from_millis(50);
/// Per-connection read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Request cap: request line + headers + a JSON body. Campaign
/// submissions carry specs (dataset, metric, budgets), never tensors,
/// so a quarter megabyte is generous.
const MAX_REQUEST: usize = 256 * 1024;

/// A parsed inbound request: method, split path/query, and body.
pub struct Request {
    /// Upper-case method (`GET`, `POST`, ...).
    pub method: String,
    /// Path with any `?query` suffix removed.
    pub path: String,
    /// The raw query string after `?` (empty when absent).
    pub query: String,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: String,
}

impl Request {
    /// Builds a request by hand — handler unit tests use this to hit a
    /// [`Router`] without opening a socket.
    pub fn new(method: &str, path: &str, body: &str) -> Self {
        let (path, query) = match path.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (path.to_string(), String::new()),
        };
        Request { method: method.to_uppercase(), path, query, body: body.to_string() }
    }

    /// Looks up a `key=value` pair in the query string.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .split('&')
            .filter_map(|kv| kv.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }
}

/// A response under construction. Defaults to `200 OK`, `text/plain`.
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A `200 OK` plain-text response.
    pub fn text(body: impl Into<String>) -> Self {
        Response { status: 200, content_type: "text/plain".to_string(), body: body.into() }
    }

    /// A `200 OK` JSON response.
    pub fn json(body: impl Into<String>) -> Self {
        Response { status: 200, content_type: "application/json".to_string(), body: body.into() }
    }

    /// Overrides the status code, builder-style.
    #[must_use]
    pub fn status(mut self, status: u16) -> Self {
        self.status = status;
        self
    }

    /// The canonical empty `404 Not Found`.
    pub fn not_found() -> Self {
        Response::text("").status(404)
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            _ => "Status",
        }
    }

    fn render(&self) -> String {
        format!(
            "HTTP/1.0 {} {}\r\nContent-Type: {}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{}",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
            self.body
        )
    }
}

type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

struct Route {
    method: String,
    pattern: String,
    prefix: bool,
    handler: Handler,
}

/// A method + path table dispatching to closures. Exact routes match
/// the whole path; prefix routes match any path starting with the
/// pattern (the handler inspects [`Request::path`] for the rest, e.g.
/// a campaign id). First match wins; a path that matches some route's
/// pattern but no route's method yields `405`, everything else `404`.
#[derive(Default)]
pub struct Router {
    routes: Vec<Route>,
}

impl Router {
    /// An empty router.
    pub fn new() -> Self {
        Router::default()
    }

    /// Adds an exact-match route.
    #[must_use]
    pub fn route(
        mut self,
        method: &str,
        path: &str,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> Self {
        self.routes.push(Route {
            method: method.to_uppercase(),
            pattern: path.to_string(),
            prefix: false,
            handler: Arc::new(handler),
        });
        self
    }

    /// Adds a prefix-match route (for paths carrying an id segment).
    #[must_use]
    pub fn route_prefix(
        mut self,
        method: &str,
        prefix: &str,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> Self {
        self.routes.push(Route {
            method: method.to_uppercase(),
            pattern: prefix.to_string(),
            prefix: true,
            handler: Arc::new(handler),
        });
        self
    }

    /// Dispatches one request — the unit-testable core of the server.
    pub fn respond(&self, req: &Request) -> Response {
        let mut path_seen = false;
        for route in &self.routes {
            let hit = if route.prefix {
                req.path.starts_with(&route.pattern)
            } else {
                req.path == route.pattern
            };
            if hit {
                if route.method == req.method {
                    return (route.handler)(req);
                }
                path_seen = true;
            }
        }
        if path_seen {
            Response::text("").status(405)
        } else {
            Response::not_found()
        }
    }

    /// Binds `addr` (port 0 for an ephemeral port) and serves this
    /// router until the returned handle drops.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn serve(self, addr: impl ToSocketAddrs) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let handle = std::thread::spawn(move || {
            while !stop_flag.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        // Serve inline: requests are rare and tiny, and
                        // one thread keeps the footprint predictable.
                        let _ = answer(stream, &self);
                    }
                    Err(_) => crate::sync::sleep(POLL),
                }
            }
        });
        Ok(HttpServer { addr, stop, handle: Some(handle) })
    }
}

/// A running HTTP endpoint. Dropping it stops the listener thread.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

/// The historical name for the handle returned by [`serve`].
pub type MetricsServer = HttpServer;

impl HttpServer {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Binds `addr` (e.g. `127.0.0.1:9184`, port 0 for an ephemeral port)
/// and serves `registry` at `/metrics` until the returned handle drops.
///
/// # Errors
///
/// Bind failures.
pub fn serve(addr: impl ToSocketAddrs, registry: MetricsRegistry) -> io::Result<HttpServer> {
    let root = registry.clone();
    Router::new()
        .route("GET", "/metrics", move |_| Response::text(registry.render_prometheus()))
        .route("GET", "/", move |_| Response::text(root.render_prometheus()))
        .serve(addr)
}

fn answer(mut stream: TcpStream, router: &Router) -> io::Result<()> {
    crate::sync::blocking("an HTTP answer");
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let response = match read_request(&mut stream) {
        Ok(Some(req)) => router.respond(&req),
        Ok(None) => Response::text("malformed request").status(400),
        Err(e) => return Err(e),
    };
    stream.write_all(response.render().as_bytes())?;
    stream.flush()
}

/// Reads and parses one request: headers to the blank line, then a body
/// of `Content-Length` bytes (all under the [`MAX_REQUEST`] cap).
/// Returns `Ok(None)` on anything malformed.
fn read_request(stream: &mut TcpStream) -> io::Result<Option<Request>> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let header_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if buf.len() >= MAX_REQUEST {
            return Ok(None);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(None),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Ok(None);
    };
    let content_length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > MAX_REQUEST {
        return Ok(None);
    }
    let mut body = buf[header_end..].to_vec();
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(None),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    body.truncate(content_length);
    let mut req = Request::new(method, target, "");
    req.body = String::from_utf8_lossy(&body).into_owned();
    Ok(Some(req))
}

/// A one-shot HTTP/1.0 client: sends `method path` with an optional
/// body and returns `(status, body)`. The CLI's service client and the
/// CI smokes drive the daemon through here.
///
/// # Errors
///
/// Connection failures or an unparseable response.
pub fn request(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let req = format!(
        "{method} {path} HTTP/1.0\r\nHost: dx\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) =
        response.split_once("\r\n\r\n").ok_or_else(|| invalid("malformed HTTP response"))?;
    let status = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| invalid("malformed status line"))?;
    Ok((status, body.to_string()))
}

/// Fetches `/metrics` from a running endpoint and returns the body —
/// the `deepxplore metrics-dump` one-shot and the CI scrape smoke both
/// go through here.
///
/// # Errors
///
/// Connection failures, or a non-200 response.
pub fn scrape(addr: impl ToSocketAddrs) -> io::Result<String> {
    let (status, body) = request(addr, "GET", "/metrics", "")?;
    if status != 200 {
        return Err(io::Error::other(format!("scrape failed: HTTP {status}")));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_and_scrape_round_trip() {
        let registry = MetricsRegistry::new();
        registry.counter("dx_seeds_total", &[]).inc_by(42);
        let server = serve("127.0.0.1:0", registry.clone()).unwrap();
        let body = scrape(server.addr()).unwrap();
        assert!(body.contains("dx_seeds_total 42\n"), "{body}");
        // Values are rendered fresh per scrape.
        registry.counter("dx_seeds_total", &[]).inc();
        let body = scrape(server.addr()).unwrap();
        assert!(body.contains("dx_seeds_total 43\n"), "{body}");
    }

    #[test]
    fn unknown_path_is_404() {
        let server = serve("127.0.0.1:0", MetricsRegistry::new()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"GET /nope HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 404"), "{response}");
    }

    #[test]
    fn shutdown_frees_the_port() {
        let server = serve("127.0.0.1:0", MetricsRegistry::new()).unwrap();
        let addr = server.addr();
        drop(server);
        // The listener is gone; a fresh bind on the same port succeeds.
        let _rebound = TcpListener::bind(addr).unwrap();
    }

    #[test]
    fn router_dispatches_posts_with_bodies() {
        let server = Router::new()
            .route("POST", "/echo", |req| Response::json(req.body.clone()))
            .route_prefix("GET", "/items/", |req| {
                Response::text(req.path.trim_start_matches("/items/").to_string())
            })
            .serve("127.0.0.1:0")
            .unwrap();
        let (status, body) = request(server.addr(), "POST", "/echo", "{\"k\":1}").unwrap();
        assert_eq!((status, body.as_str()), (200, "{\"k\":1}"));
        let (status, body) = request(server.addr(), "GET", "/items/abc", "").unwrap();
        assert_eq!((status, body.as_str()), (200, "abc"));
        // Wrong method on a known path is 405, unknown path is 404.
        let (status, _) = request(server.addr(), "GET", "/echo", "").unwrap();
        assert_eq!(status, 405);
        let (status, _) = request(server.addr(), "POST", "/nope", "").unwrap();
        assert_eq!(status, 404);
    }

    #[test]
    fn query_params_parse() {
        let req = Request::new("GET", "/events?from=12&tail=1", "");
        assert_eq!(req.path, "/events");
        assert_eq!(req.query_param("from"), Some("12"));
        assert_eq!(req.query_param("tail"), Some("1"));
        assert_eq!(req.query_param("missing"), None);
    }
}
