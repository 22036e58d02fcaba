#include "runtime/session.h"

#include <utility>
#include <vector>

namespace popdb {

// -------------------------------------------------------- SessionRegistry

uint64_t SessionRegistry::OpenSession() {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_session_id_++;
  sessions_.emplace(id, Session{});
  return id;
}

void SessionRegistry::CloseSession(uint64_t session_id) {
  std::vector<std::shared_ptr<QueryTicket>> to_cancel;
  std::vector<std::shared_ptr<CancelToken>> tokens;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) return;
    for (auto& [query_id, ticket] : it->second.queries) {
      by_query_id_.erase(query_id);
      to_cancel.push_back(std::move(ticket));
    }
    for (auto& [query_id, token] : it->second.cancelables) {
      by_cancel_id_.erase(query_id);
      tokens.push_back(std::move(token));
    }
    sessions_.erase(it);
  }
  // Cancel outside the lock: Cancel() wakes service workers that may call
  // back into the registry.
  for (const auto& ticket : to_cancel) ticket->Cancel();
  for (const auto& token : tokens) token->RequestCancel();
}

Status SessionRegistry::RegisterQuery(uint64_t session_id,
                                      std::shared_ptr<QueryTicket> ticket,
                                      int max_inflight) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("unknown session " + std::to_string(session_id));
  }
  if (max_inflight > 0 &&
      static_cast<int>(it->second.queries.size()) >= max_inflight) {
    return Status::ResourceExhausted(
        "session " + std::to_string(session_id) + " already has " +
        std::to_string(it->second.queries.size()) + " queries in flight");
  }
  const int64_t query_id = ticket->query_id();
  by_query_id_[query_id] = ticket;
  it->second.queries[query_id] = std::move(ticket);
  return Status::Ok();
}

Status SessionRegistry::RegisterCancelable(uint64_t session_id,
                                           int64_t query_id,
                                           std::shared_ptr<CancelToken> token,
                                           int max_inflight) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("unknown session " + std::to_string(session_id));
  }
  const size_t inflight =
      it->second.queries.size() + it->second.cancelables.size();
  if (max_inflight > 0 && static_cast<int>(inflight) >= max_inflight) {
    return Status::ResourceExhausted(
        "session " + std::to_string(session_id) + " already has " +
        std::to_string(inflight) + " queries in flight");
  }
  by_cancel_id_[query_id] = token;
  it->second.cancelables[query_id] = std::move(token);
  return Status::Ok();
}

void SessionRegistry::ReleaseCancelable(uint64_t session_id,
                                        int64_t query_id) {
  std::lock_guard<std::mutex> lock(mu_);
  by_cancel_id_.erase(query_id);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  it->second.cancelables.erase(query_id);
}

std::shared_ptr<QueryTicket> SessionRegistry::FindQuery(int64_t query_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_query_id_.find(query_id);
  return it == by_query_id_.end() ? nullptr : it->second;
}

std::shared_ptr<QueryTicket> SessionRegistry::FindSessionQuery(
    uint64_t session_id, int64_t query_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto session = sessions_.find(session_id);
  if (session == sessions_.end()) return nullptr;
  auto entry = session->second.queries.find(query_id);
  return entry == session->second.queries.end() ? nullptr : entry->second;
}

std::shared_ptr<QueryTicket> SessionRegistry::ReleaseQuery(
    uint64_t session_id, int64_t query_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto session = sessions_.find(session_id);
  if (session == sessions_.end()) return nullptr;
  auto entry = session->second.queries.find(query_id);
  if (entry == session->second.queries.end()) return nullptr;
  std::shared_ptr<QueryTicket> ticket = std::move(entry->second);
  session->second.queries.erase(entry);
  by_query_id_.erase(query_id);
  return ticket;
}

bool SessionRegistry::CancelQuery(int64_t query_id) {
  std::shared_ptr<QueryTicket> ticket = FindQuery(query_id);
  if (ticket != nullptr) {
    ticket->Cancel();
    return true;
  }
  std::shared_ptr<CancelToken> token;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_cancel_id_.find(query_id);
    if (it != by_cancel_id_.end()) token = it->second;
  }
  if (token == nullptr) return false;
  token->RequestCancel();
  return true;
}

void SessionRegistry::CancelAll() {
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  std::vector<std::shared_ptr<CancelToken>> tokens;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tickets.reserve(by_query_id_.size());
    for (const auto& [id, ticket] : by_query_id_) tickets.push_back(ticket);
    tokens.reserve(by_cancel_id_.size());
    for (const auto& [id, token] : by_cancel_id_) tokens.push_back(token);
  }
  for (const auto& ticket : tickets) ticket->Cancel();
  for (const auto& token : tokens) token->RequestCancel();
}

int64_t SessionRegistry::open_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(sessions_.size());
}

int64_t SessionRegistry::inflight_queries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(by_query_id_.size() + by_cancel_id_.size());
}

// ------------------------------------------------------------- TraceStore

void TraceStore::Emit(const QueryTrace& trace) {
  std::string json = trace.ToJson();
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = by_id_.try_emplace(trace.query_id, std::move(json));
  if (!inserted) {
    it->second = std::move(json);  // Re-emitted id: keep the newest trace.
    return;
  }
  order_.push_back(trace.query_id);
  while (static_cast<int64_t>(order_.size()) > capacity_) {
    by_id_.erase(order_.front());
    order_.pop_front();
  }
}

std::optional<std::string> TraceStore::Get(int64_t query_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_id_.find(query_id);
  if (it == by_id_.end()) return std::nullopt;
  return it->second;
}

int64_t TraceStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(by_id_.size());
}

}  // namespace popdb
