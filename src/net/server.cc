#include "net/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "common/span.h"
#include "common/string_util.h"
#include "core/explain.h"
#include "core/pop.h"
#include "sql/binder.h"

namespace popdb::net {

namespace {

/// Wire frames are small control messages; row batches are produced by the
/// server, never parsed. Bound the parse work an untrusted frame can cause.
constexpr JsonParseLimits kRequestParseLimits{/*max_depth=*/32,
                                             /*max_nodes=*/200000};

std::string ErrorFrame(StatusCode code, const std::string& message) {
  JsonWriter w;
  w.BeginObject();
  w.Key("type").String("error");
  w.Key("code").String(StatusCodeWireName(code));
  w.Key("message").String(message);
  w.EndObject();
  return w.str();
}

}  // namespace

/// Per-connection state threaded through the request handlers.
struct NetServer::ConnState {
  int fd = -1;
  uint64_t session_id = 0;  ///< 0 until hello completed.
  /// Session-default trace token from hello; query/subplan requests may
  /// override it per request.
  std::string trace_token;
};

NetServer::NetServer(QueryService* service, TraceStore* traces,
                     NetServerConfig config)
    : service_(service), traces_(traces), config_(std::move(config)) {
  POPDB_DCHECK(service_ != nullptr);
  if (config_.num_workers < 1) config_.num_workers = 1;
  if (config_.max_pending_connections < 1) {
    config_.max_pending_connections = 1;
  }
  if (config_.default_batch_rows < 1) config_.default_batch_rows = 1;
  if (config_.max_batch_rows < config_.default_batch_rows) {
    config_.max_batch_rows = config_.default_batch_rows;
  }
  if (config_.max_frame_bytes > kAbsoluteMaxFrameBytes) {
    config_.max_frame_bytes = kAbsoluteMaxFrameBytes;
  }

  MetricsRegistry& registry = service_->metrics_registry();
  connections_total_ = registry.GetCounter(
      "popdb_net_connections_total", "TCP connections accepted.");
  connections_active_ = registry.GetGauge(
      "popdb_net_connections_active",
      "Connections currently served by a worker.");
  sessions_open_ = registry.GetGauge("popdb_net_sessions_open",
                                     "Client sessions currently open.");
  frames_read_ = registry.GetCounter("popdb_net_frames_read_total",
                                     "Wire frames received from clients.");
  frames_written_ = registry.GetCounter(
      "popdb_net_frames_written_total", "Wire frames sent to clients.");
  bytes_read_ = registry.GetCounter("popdb_net_bytes_read_total",
                                    "Bytes received from clients.");
  bytes_written_ = registry.GetCounter("popdb_net_bytes_written_total",
                                       "Bytes sent to clients.");
  protocol_errors_ = registry.GetCounter(
      "popdb_net_protocol_errors_total",
      "Malformed, oversized, or out-of-order client frames.");
  queries_total_ = registry.GetCounter(
      "popdb_net_queries_total", "Query requests accepted over the wire.");
  cancels_total_ = registry.GetCounter("popdb_net_cancels_total",
                                       "Cancel requests received.");
  connections_shed_ = registry.GetCounter(
      "popdb_net_connections_shed_total",
      "Connections closed immediately because the pending queue was "
      "full.");
  subplans_total_ = registry.GetCounter(
      "popdb_net_subplans_total",
      "Subplan requests executed on behalf of a coordinator.");
  writes_total_ = registry.GetCounter(
      "popdb_net_writes_total",
      "DML statements applied over the wire (write_done responses).");
}

NetServer::~NetServer() { Shutdown(); }

Status NetServer::Start() {
  if (started_) return Status::InvalidArgument("server already started");
  Result<Listener> listener =
      ListenTcp(config_.host, config_.port, config_.accept_backlog);
  if (!listener.ok()) return listener.status();
  listen_fd_ = listener.value().fd;
  port_ = listener.value().port;
  started_ = true;

  acceptor_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(static_cast<size_t>(config_.num_workers));
  for (int i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::Ok();
}

void NetServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (joined_) return;
    joined_ = true;
  }
  stop_.store(true, std::memory_order_release);
  // Unblock connection workers waiting on tickets, then wake every thread
  // blocked in poll/recv/send via a half-close of its descriptor.
  sessions_.CancelAll();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const int fd : active_fds_) ShutdownFd(fd);
  }
  ShutdownFd(listen_fd_);
  cv_.notify_all();
  shutdown_cv_.notify_all();

  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Threads are gone; release what they never picked up.
  for (const int fd : pending_) CloseFd(fd);
  pending_.clear();
  CloseFd(listen_fd_);
  listen_fd_ = -1;
}

bool NetServer::WaitForShutdownRequest(double timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto pred = [this] {
    return shutdown_requested_.load(std::memory_order_acquire) ||
           stop_.load(std::memory_order_acquire);
  };
  if (timeout_ms > 0) {
    shutdown_cv_.wait_for(
        lock, std::chrono::duration<double, std::milli>(timeout_ms), pred);
  } else {
    shutdown_cv_.wait(lock, pred);
  }
  return shutdown_requested_.load(std::memory_order_acquire);
}

void NetServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    struct pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int rc = ::poll(&pfd, 1, 100);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) continue;

    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
          errno == ECONNABORTED) {
        continue;
      }
      break;  // Listener closed or broken.
    }
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    connections_total_->Increment();
    bool shed = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_.load(std::memory_order_acquire) ||
          static_cast<int>(pending_.size()) >=
              config_.max_pending_connections) {
        shed = true;
      } else {
        pending_.push_back(fd);
      }
    }
    if (shed) {
      connections_shed_->Increment();
      CloseFd(fd);
    } else {
      cv_.notify_one();
    }
  }
}

void NetServer::WorkerLoop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_acquire) || !pending_.empty();
      });
      if (stop_.load(std::memory_order_acquire)) return;
      fd = pending_.front();
      pending_.pop_front();
      active_fds_.insert(fd);
    }
    connections_active_->Increment();
    ServeConnection(fd);
    connections_active_->Decrement();
    {
      std::lock_guard<std::mutex> lock(mu_);
      active_fds_.erase(fd);
    }
    CloseFd(fd);
  }
}

void NetServer::ServeConnection(int fd) {
  ConnState conn;
  conn.fd = fd;

  while (!stop_.load(std::memory_order_acquire)) {
    std::atomic<int64_t> delta{0};
    FrameResult frame = ReadFrame(fd, config_.max_frame_bytes,
                                  config_.read_timeout_ms, &stop_, &delta);
    bytes_read_->Increment(delta.load(std::memory_order_relaxed));
    switch (frame.status) {
      case FrameStatus::kOk:
        break;
      case FrameStatus::kEof:
      case FrameStatus::kStopped:
        goto done;
      case FrameStatus::kTimeout:
        SendError(&conn, StatusCode::kDeadlineExceeded,
                  "connection idle timeout");
        goto done;
      case FrameStatus::kTooLarge:
        protocol_errors_->Increment();
        SendError(&conn, StatusCode::kInvalidArgument, frame.error);
        goto done;
      case FrameStatus::kError:
        protocol_errors_->Increment();
        goto done;
    }
    frames_read_->Increment();
    if (!HandleFrame(&conn, frame.payload)) break;
  }
done:
  if (conn.session_id != 0) {
    sessions_.CloseSession(conn.session_id);
    sessions_open_->Set(sessions_.open_sessions());
  }
}

bool NetServer::SendFrame(ConnState* conn, const std::string& payload) {
  std::atomic<int64_t> delta{0};
  const Status s = WriteFrame(conn->fd, payload, config_.write_timeout_ms,
                              &stop_, &delta);
  bytes_written_->Increment(delta.load(std::memory_order_relaxed));
  if (!s.ok()) return false;
  frames_written_->Increment();
  return true;
}

bool NetServer::SendError(ConnState* conn, StatusCode code,
                          const std::string& message) {
  return SendFrame(conn, ErrorFrame(code, message));
}

bool NetServer::HandleFrame(ConnState* conn, const std::string& payload) {
  Result<JsonValue> parsed = JsonParse(payload, kRequestParseLimits);
  if (!parsed.ok()) {
    // Framing is still sound (the length prefix was honored), so the
    // connection survives a malformed payload.
    protocol_errors_->Increment();
    return SendError(conn, StatusCode::kInvalidArgument,
                     parsed.status().message());
  }
  const JsonValue& request = parsed.value();
  if (request.kind() != JsonValue::Kind::kObject) {
    protocol_errors_->Increment();
    return SendError(conn, StatusCode::kInvalidArgument,
                     "request frame must be a JSON object");
  }
  const std::string type = request.GetString("type", "");
  if (type.empty()) {
    protocol_errors_->Increment();
    return SendError(conn, StatusCode::kInvalidArgument,
                     "request frame has no \"type\"");
  }

  if (conn->session_id == 0 && type != "hello") {
    protocol_errors_->Increment();
    return SendError(conn, StatusCode::kInvalidArgument,
                     "first request must be \"hello\"");
  }

  if (type == "hello") return HandleHello(conn, request);
  if (type == "query") return HandleQuery(conn, request);
  if (type == "subplan") return HandleSubplan(conn, request);
  if (type == "wait") return HandleWait(conn, request);
  if (type == "cancel") return HandleCancel(conn, request);
  if (type == "trace") return HandleTrace(conn, request);
  if (type == "spans") return HandleSpans(conn, request);
  if (type == "query_log") return HandleQueryLog(conn, request);
  if (type == "metrics") return HandleMetrics(conn, request);
  if (type == "goodbye") return HandleGoodbye(conn);
  if (type == "shutdown") return HandleShutdownRequest(conn);

  protocol_errors_->Increment();
  return SendError(conn, StatusCode::kUnimplemented,
                   "unknown request type \"" + type + "\"");
}

bool NetServer::HandleHello(ConnState* conn, const JsonValue& request) {
  if (conn->session_id != 0) {
    protocol_errors_->Increment();
    return SendError(conn, StatusCode::kInvalidArgument,
                     "session already established");
  }
  const int64_t protocol = request.GetInt("protocol", -1);
  if (protocol != kProtocolVersion) {
    protocol_errors_->Increment();
    return SendError(
        conn, StatusCode::kInvalidArgument,
        StrFormat("unsupported protocol version %lld (server speaks %d)",
                  static_cast<long long>(protocol), kProtocolVersion));
  }
  conn->session_id = sessions_.OpenSession();
  conn->trace_token = request.GetString("trace_token", "");
  sessions_open_->Set(sessions_.open_sessions());

  JsonWriter w;
  w.BeginObject();
  w.Key("type").String("hello_ok");
  w.Key("session_id").Int(static_cast<int64_t>(conn->session_id));
  w.Key("protocol").Int(kProtocolVersion);
  w.Key("server").String(config_.server_name);
  w.EndObject();
  return SendFrame(conn, w.str());
}

bool NetServer::HandleQuery(ConnState* conn, const JsonValue& request) {
  const JsonValue* sql = request.Find("sql");
  if (sql == nullptr || sql->kind() != JsonValue::Kind::kString) {
    protocol_errors_->Increment();
    return SendError(conn, StatusCode::kInvalidArgument,
                     "query request needs a string \"sql\"");
  }

  std::vector<Value> params;
  if (const JsonValue* p = request.Find("params"); p != nullptr) {
    if (p->kind() != JsonValue::Kind::kArray) {
      return SendError(conn, StatusCode::kInvalidArgument,
                       "\"params\" must be an array");
    }
    for (const JsonValue& item : p->items()) {
      Result<Value> v = ValueFromJson(item);
      if (!v.ok()) {
        return SendError(conn, StatusCode::kInvalidArgument,
                         "bad parameter: " + v.status().message());
      }
      params.push_back(std::move(v).TakeValue());
    }
  }

  // SQL errors travel back as protocol error frames, annotated with a
  // caret into the offending statement.
  Result<sql::BoundStatement> bound = sql::ParseSqlStatement(
      service_->catalog(), sql->AsString(), std::move(params));
  if (!bound.ok()) {
    return SendError(conn, bound.status().code(),
                     sql::AnnotateError(sql->AsString(), bound.status()));
  }
  if (bound.value().explain) {
    return SendError(conn, StatusCode::kUnimplemented,
                     "EXPLAIN is not supported over the wire; use the "
                     "trace request for executed-plan diagnostics");
  }
  if (bound.value().is_write) {
    // DML applies synchronously on the connection worker (the per-table
    // write lane is the concurrency control; the admission queue is for
    // analytical work) and answers with a single write_done frame.
    const WriteQueryResult wr =
        service_->ExecuteWrite(bound.value().write);
    if (!wr.status.ok()) {
      return SendError(conn, wr.status.code(), wr.status.message());
    }
    writes_total_->Increment();
    JsonWriter w;
    w.BeginObject();
    w.Key("type").String("write_done");
    w.Key("query_id").Int(wr.query_id);
    w.Key("affected_rows").Int(wr.affected_rows);
    w.Key("stats_version").Int(wr.stats_version);
    w.Key("stats_folded").Bool(wr.stats_folded);
    w.Key("total_ms").Double(wr.total_ms);
    w.EndObject();
    return SendFrame(conn, w.str());
  }

  SubmitOptions opts;
  opts.session_id = conn->session_id;
  opts.trace_token = request.GetString("trace_token", conn->trace_token);
  opts.deadline_ms = request.GetNumber("deadline_ms", -1.0);
  if (request.GetString("priority", "normal") == "high") {
    opts.priority = QueryPriority::kHigh;
  }

  Result<std::shared_ptr<QueryTicket>> ticket =
      service_->Submit(std::move(bound.value().query), opts);
  if (!ticket.ok()) {
    return SendError(conn, ticket.status().code(),
                     ticket.status().message());
  }
  const int64_t query_id = ticket.value()->query_id();
  const Status registered = sessions_.RegisterQuery(
      conn->session_id, ticket.value(), config_.max_inflight_per_session);
  if (!registered.ok()) {
    // Over the per-session bound: the query was already admitted, so undo
    // the submission by cancelling before rejecting the request.
    ticket.value()->Cancel();
    return SendError(conn, registered.code(), registered.message());
  }
  queries_total_->Increment();

  int64_t batch_rows =
      request.GetInt("batch_rows", config_.default_batch_rows);
  if (batch_rows < 1) batch_rows = config_.default_batch_rows;
  if (batch_rows > config_.max_batch_rows) {
    batch_rows = config_.max_batch_rows;
  }

  if (request.GetBool("async", false)) {
    JsonWriter w;
    w.BeginObject();
    w.Key("type").String("query_accepted");
    w.Key("query_id").Int(query_id);
    w.EndObject();
    return SendFrame(conn, w.str());
  }
  return StreamResult(conn, query_id, batch_rows);
}

bool NetServer::HandleSubplan(ConnState* conn, const JsonValue& request) {
  if (config_.subplan_backend == nullptr) {
    protocol_errors_->Increment();
    return SendError(conn, StatusCode::kUnimplemented,
                     "this server does not execute subplans (not a shard)");
  }

  // Subplans bypass the ticket model (rows stream while the query runs),
  // so cancellation rides a bare token registered under a service-scoped
  // query id: cancel-by-id from any session, session close and server
  // shutdown all trip it.
  const int64_t query_id = service_->AllocateQueryId();
  auto token = std::make_shared<CancelToken>();
  const double deadline_ms = request.GetNumber("deadline_ms", -1.0);
  if (deadline_ms > 0) token->SetDeadlineAfterMs(deadline_ms);
  const Status registered = sessions_.RegisterCancelable(
      conn->session_id, query_id, token, config_.max_inflight_per_session);
  if (!registered.ok()) {
    return SendError(conn, registered.code(), registered.message());
  }
  subplans_total_->Increment();

  // Distributed trace stitching: spans recorded under the coordinator's
  // trace token line up with its timeline when the dumps are merged.
  const std::string trace_token = request.GetString(
      "trace_token", conn->trace_token.empty()
                         ? "q" + std::to_string(query_id)
                         : conn->trace_token);
  TRACE_SPAN_NAMED(subplan_span, "subplan", "dist");
  subplan_span.SetLabel(std::string_view(trace_token));
  subplan_span.SetArg("query_id", query_id);

  {
    JsonWriter w;
    w.BeginObject();
    w.Key("type").String("subplan_ok");
    w.Key("query_id").Int(query_id);
    w.EndObject();
    if (!SendFrame(conn, w.str())) {
      sessions_.ReleaseCancelable(conn->session_id, query_id);
      return false;
    }
  }

  bool alive = true;
  const auto emit = [&](const std::vector<Row>& rows) {
    JsonWriter w;
    w.BeginObject();
    w.Key("type").String("row_batch");
    w.Key("query_id").Int(query_id);
    w.Key("rows").BeginArray();
    for (const Row& row : rows) AppendRowJson(row, &w);
    w.EndArray();
    w.EndObject();
    if (!SendFrame(conn, w.str())) {
      alive = false;
      return false;
    }
    // Chaos knob: hold the stream open so tests can kill or cancel the
    // shard mid-query; sliced so cancellation stays responsive.
    double remaining_ms = config_.subplan_stall_ms;
    while (remaining_ms > 0 && !token->Expired() &&
           !stop_.load(std::memory_order_acquire)) {
      const double slice = remaining_ms < 5.0 ? remaining_ms : 5.0;
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(slice));
      remaining_ms -= slice;
    }
    return true;
  };

  SubplanBackend::RunResult result =
      config_.subplan_backend->Run(request, token.get(), emit);
  sessions_.ReleaseCancelable(conn->session_id, query_id);

  // Subplans bypass FinishTicket, so the shard-local trace store and query
  // log are fed here: the shard's own `trace`/`query_log` endpoints resolve
  // subplan ids too.
  QueryTrace trace;
  trace.query_id = query_id;
  trace.kind = "subplan";
  trace.query_name = result.query_name;
  trace.session_id = conn->session_id;
  trace.outcome = result.outcome;
  if (!result.status.ok()) trace.status_message = result.status.message();
  trace.execute_ms = result.execute_ms;
  trace.total_ms = result.execute_ms;
  trace.result_rows = result.rows_sent;
  AttemptInfo& attempt = trace.attempts.emplace_back();
  attempt.execute_ms = result.execute_ms;
  attempt.rows_returned = result.rows_sent;
  if (!result.violation_json.empty()) {
    // The fired CHECK's flavor, decoded once from the check_violation
    // frame, feeds both the trace's reopt_flavor and the log's per-flavor
    // counts.
    Result<JsonValue> violation = JsonParse(result.violation_json);
    const int64_t flavor =
        violation.ok() ? violation.value().GetInt("flavor", 0) : 0;
    attempt.reoptimized = true;
    attempt.signal.flavor = static_cast<CheckFlavor>(flavor);
    trace.check_events = 1;
    trace.checks_fired = 1;
    trace.flavor_fired[flavor] = 1;
  }
  if (!result.profile_json.empty()) {
    Result<JsonValue> parsed_profile = JsonParse(result.profile_json);
    if (parsed_profile.ok() &&
        ProfileFromJson(parsed_profile.value(), &attempt.profile)) {
      attempt.has_profile = true;
    }
  }
  service_->RecordCompletion(&trace);
  if (traces_ != nullptr) traces_->Emit(trace);
  if (!alive) return false;

  if (!result.violation_json.empty()) {
    if (!SendFrame(conn, result.violation_json)) return false;
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("type").String("query_done");
  w.Key("query_id").Int(query_id);
  w.Key("status").String(StatusCodeWireName(result.status.code()));
  if (!result.status.ok()) {
    w.Key("message").String(result.status.message());
  }
  w.Key("outcome").String(result.outcome);
  w.Key("result_rows").Int(result.rows_sent);
  w.Key("execute_ms").Double(result.execute_ms);
  w.Key("observations").Raw(result.observations_json);
  if (!result.profile_json.empty()) {
    w.Key("profile").Raw(result.profile_json);
  }
  w.EndObject();
  return SendFrame(conn, w.str());
}

bool NetServer::HandleWait(ConnState* conn, const JsonValue& request) {
  const int64_t query_id = request.GetInt("query_id", -1);
  if (sessions_.FindSessionQuery(conn->session_id, query_id) == nullptr) {
    return SendError(conn, StatusCode::kNotFound,
                     StrFormat("query %lld is not in flight in this session",
                               static_cast<long long>(query_id)));
  }
  int64_t batch_rows =
      request.GetInt("batch_rows", config_.default_batch_rows);
  if (batch_rows < 1) batch_rows = config_.default_batch_rows;
  if (batch_rows > config_.max_batch_rows) {
    batch_rows = config_.max_batch_rows;
  }
  return StreamResult(conn, query_id, batch_rows);
}

bool NetServer::StreamResult(ConnState* conn, int64_t query_id,
                             int64_t batch_rows) {
  std::shared_ptr<QueryTicket> ticket =
      sessions_.FindSessionQuery(conn->session_id, query_id);
  if (ticket == nullptr) {
    return SendError(conn, StatusCode::kNotFound, "query vanished");
  }
  // Blocking wait: a server Shutdown() cancels every registered ticket, so
  // this wakes under cooperative shutdown too.
  const QueryResult& result = ticket->Wait();
  sessions_.ReleaseQuery(conn->session_id, query_id);

  for (size_t offset = 0; offset < result.rows.size();
       offset += static_cast<size_t>(batch_rows)) {
    const size_t end =
        std::min(result.rows.size(), offset + static_cast<size_t>(batch_rows));
    JsonWriter w;
    w.BeginObject();
    w.Key("type").String("row_batch");
    w.Key("query_id").Int(query_id);
    w.Key("rows").BeginArray();
    for (size_t i = offset; i < end; ++i) {
      AppendRowJson(result.rows[i], &w);
    }
    w.EndArray();
    w.EndObject();
    if (!SendFrame(conn, w.str())) return false;
  }

  const QueryTrace& trace = result.trace;
  JsonWriter w;
  w.BeginObject();
  w.Key("type").String("query_done");
  w.Key("query_id").Int(query_id);
  w.Key("status").String(StatusCodeWireName(result.status.code()));
  if (!result.status.ok()) {
    w.Key("message").String(result.status.message());
  }
  w.Key("outcome").String(trace.outcome);
  w.Key("result_rows").Int(static_cast<int64_t>(result.rows.size()));
  w.Key("reopts").Int(trace.reopts);
  w.Key("total_ms").Double(trace.total_ms);
  w.Key("queue_ms").Double(trace.queue_ms);
  w.Key("plan_cache").String(trace.plan_cache);
  w.EndObject();
  return SendFrame(conn, w.str());
}

bool NetServer::HandleCancel(ConnState* conn, const JsonValue& request) {
  const int64_t query_id = request.GetInt("query_id", -1);
  cancels_total_->Increment();
  const bool found = sessions_.CancelQuery(query_id);
  JsonWriter w;
  w.BeginObject();
  w.Key("type").String("cancel_ok");
  w.Key("query_id").Int(query_id);
  w.Key("found").Bool(found);
  w.EndObject();
  return SendFrame(conn, w.str());
}

bool NetServer::HandleTrace(ConnState* conn, const JsonValue& request) {
  const int64_t query_id = request.GetInt("query_id", -1);
  std::optional<std::string> trace;
  if (traces_ != nullptr) trace = traces_->Get(query_id);
  if (!trace.has_value()) {
    return SendError(
        conn, StatusCode::kNotFound,
        StrFormat("no trace for query %lld (unknown id, still running, or "
                  "evicted)",
                  static_cast<long long>(query_id)));
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("type").String("trace_ok");
  w.Key("query_id").Int(query_id);
  w.Key("trace").Raw(*trace);
  w.EndObject();
  return SendFrame(conn, w.str());
}

bool NetServer::HandleSpans(ConnState* conn, const JsonValue& request) {
  SpanTracer& tracer = SpanTracer::Global();
  // Remote tracer control (benchmarks and tests toggle shard tracers over
  // the wire); an enable/disable-only request still returns the dump.
  if (const JsonValue* enable = request.Find("enable"); enable != nullptr) {
    if (enable->AsBool()) {
      tracer.Enable();
    } else {
      tracer.Disable();
    }
  }

  const std::string scope = request.GetString("scope", "local");
  if (scope == "cluster") {
    if (config_.cluster == nullptr) {
      return SendError(conn, StatusCode::kUnimplemented,
                       "this server is not a coordinator (no cluster "
                       "observability hook)");
    }
    Result<std::string> stitched = config_.cluster->ClusterTraceJson();
    if (!stitched.ok()) {
      return SendError(conn, stitched.status().code(),
                       stitched.status().message());
    }
    JsonWriter w;
    w.BeginObject();
    w.Key("type").String("spans_ok");
    w.Key("scope").String("cluster");
    w.Key("now_us").Int(tracer.NowUs());
    w.Key("trace").Raw(stitched.value());
    w.EndObject();
    return SendFrame(conn, w.str());
  }
  if (scope != "local") {
    return SendError(conn, StatusCode::kInvalidArgument,
                     "spans scope must be \"local\" or \"cluster\"");
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("type").String("spans_ok");
  w.Key("scope").String("local");
  w.Key("now_us").Int(tracer.NowUs());
  w.Key("event_count").Int(tracer.event_count());
  w.Key("trace").Raw(tracer.ExportChromeTrace());
  w.EndObject();
  if (request.GetBool("clear", false)) tracer.Clear();
  return SendFrame(conn, w.str());
}

bool NetServer::HandleQueryLog(ConnState* conn, const JsonValue& request) {
  QueryLog* log = service_->query_log();
  if (log == nullptr) {
    return SendError(conn, StatusCode::kNotFound,
                     "the query log is disabled on this server "
                     "(query_log_entries <= 0)");
  }
  const int64_t limit = request.GetInt("limit", 0);
  JsonWriter w;
  w.BeginObject();
  w.Key("type").String("query_log_ok");
  w.Key("total").Int(log->total());
  w.Key("entries").Raw(log->ToJsonArray(limit));
  w.EndObject();
  return SendFrame(conn, w.str());
}

bool NetServer::HandleMetrics(ConnState* conn, const JsonValue& request) {
  std::string text = service_->MetricsText();
  if (request.GetBool("cluster", false)) {
    if (config_.cluster == nullptr) {
      return SendError(conn, StatusCode::kUnimplemented,
                       "this server is not a coordinator (no cluster "
                       "observability hook)");
    }
    Result<std::string> federated =
        config_.cluster->FederatedMetricsText(text);
    if (!federated.ok()) {
      return SendError(conn, federated.status().code(),
                       federated.status().message());
    }
    text = std::move(federated).TakeValue();
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("type").String("metrics_ok");
  w.Key("text").String(text);
  w.EndObject();
  return SendFrame(conn, w.str());
}

bool NetServer::HandleGoodbye(ConnState* conn) {
  // Unregister the session before acknowledging: a client that waited for
  // goodbye_ok must not still observe its session as open.
  if (conn->session_id != 0) {
    sessions_.CloseSession(conn->session_id);
    conn->session_id = 0;
    sessions_open_->Set(sessions_.open_sessions());
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("type").String("goodbye_ok");
  w.EndObject();
  SendFrame(conn, w.str());
  return false;  // Close the connection.
}

bool NetServer::HandleShutdownRequest(ConnState* conn) {
  if (!config_.allow_shutdown_request) {
    protocol_errors_->Increment();
    return SendError(conn, StatusCode::kInvalidArgument,
                     "shutdown requests are not enabled on this server");
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("type").String("shutdown_ok");
  w.EndObject();
  SendFrame(conn, w.str());
  shutdown_requested_.store(true, std::memory_order_release);
  shutdown_cv_.notify_all();
  return false;
}

}  // namespace popdb::net
