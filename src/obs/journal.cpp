#include "src/obs/journal.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "src/common/error.hpp"

namespace mvd {

RefusalList::RefusalList(std::vector<ServeRefusal> refusals) {
  if (!refusals.empty()) {
    list_ = std::make_shared<const std::vector<ServeRefusal>>(
        std::move(refusals));
  }
}

bool operator==(const RefusalList& a, const RefusalList& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

std::string to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kOpen:
      return "open";
    case EventKind::kDeclareQuery:
      return "declare-query";
    case EventKind::kDeclareUpdate:
      return "declare-update";
    case EventKind::kServe:
      return "serve";
    case EventKind::kIngest:
      return "ingest";
    case EventKind::kRefresh:
      return "refresh";
  }
  return "?";
}

namespace {

EventKind kind_from_string(const std::string& text) {
  if (text == "open") return EventKind::kOpen;
  if (text == "declare-query") return EventKind::kDeclareQuery;
  if (text == "declare-update") return EventKind::kDeclareUpdate;
  if (text == "serve") return EventKind::kServe;
  if (text == "ingest") return EventKind::kIngest;
  if (text == "refresh") return EventKind::kRefresh;
  throw ParseError("unknown journal event kind '" + text + "'");
}

Json names_to_json(const std::vector<std::string>& names) {
  Json arr = Json::array();
  for (const std::string& n : names) arr.push_back(Json::string(n));
  return arr;
}

std::vector<std::string> names_from_json(const Json& arr) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < arr.size(); ++i) {
    out.push_back(arr.at(i).as_string());
  }
  return out;
}

double number_or(const Json& doc, const std::string& key, double fallback) {
  return doc.contains(key) ? doc.at(key).as_number() : fallback;
}

std::string string_or(const Json& doc, const std::string& key) {
  return doc.contains(key) ? doc.at(key).as_string() : std::string();
}

}  // namespace

Json JournalEvent::to_json() const {
  Json doc = Json::object();
  doc.set("seq", Json::number(static_cast<double>(seq)));
  doc.set("kind", Json::string(to_string(kind)));
  if (epoch != 0) doc.set("epoch", Json::number(static_cast<double>(epoch)));
  switch (kind) {
    case EventKind::kOpen:
      doc.set("window", Json::number(static_cast<double>(window)));
      break;
    case EventKind::kDeclareQuery:
      doc.set("query", Json::string(query));
      doc.set("frequency", Json::number(frequency));
      break;
    case EventKind::kDeclareUpdate:
      doc.set("relation", Json::string(relation));
      doc.set("frequency", Json::number(frequency));
      break;
    case EventKind::kServe: {
      doc.set("query", Json::string(query));
      doc.set("fingerprint", Json::string(fingerprint));
      doc.set("rewritten", Json::boolean(rewritten));
      if (rewritten) doc.set("view", Json::string(view));
      doc.set("engine", Json::string(engine));
      doc.set("latency_ms", Json::number(latency_ms));
      if (!refusals.empty()) {
        Json arr = Json::array();
        for (const ServeRefusal& r : refusals) {
          Json one = Json::object();
          one.set("view", Json::string(r.view));
          one.set("reason", Json::string(r.reason));
          arr.push_back(std::move(one));
        }
        doc.set("refusals", std::move(arr));
      }
      if (!stale_views.empty()) {
        doc.set("stale_views", names_to_json(stale_views));
      }
      break;
    }
    case EventKind::kIngest:
      doc.set("relation", Json::string(relation));
      doc.set("delta_rows", Json::number(delta_rows));
      if (!marked_stale.empty()) {
        doc.set("marked_stale", names_to_json(marked_stale));
      }
      break;
    case EventKind::kRefresh:
      doc.set("refreshed", names_to_json(refreshed));
      doc.set("mode", Json::string(mode));
      break;
  }
  return doc;
}

JournalEvent JournalEvent::from_json(const Json& doc) {
  if (doc.kind() != Json::Kind::kObject) {
    throw ParseError("journal event is not an object");
  }
  JournalEvent e;
  e.seq = static_cast<std::uint64_t>(number_or(doc, "seq", 0));
  e.kind = kind_from_string(doc.at("kind").as_string());
  e.epoch = static_cast<std::uint64_t>(number_or(doc, "epoch", 0));
  switch (e.kind) {
    case EventKind::kOpen:
      e.window = static_cast<std::uint64_t>(number_or(doc, "window", 0));
      break;
    case EventKind::kDeclareQuery:
      e.query = doc.at("query").as_string();
      e.frequency = doc.at("frequency").as_number();
      break;
    case EventKind::kDeclareUpdate:
      e.relation = doc.at("relation").as_string();
      e.frequency = doc.at("frequency").as_number();
      break;
    case EventKind::kServe:
      e.query = string_or(doc, "query");
      e.fingerprint = doc.at("fingerprint").as_string();
      e.rewritten = doc.at("rewritten").as_bool();
      e.view = string_or(doc, "view");
      e.engine = string_or(doc, "engine");
      e.latency_ms = number_or(doc, "latency_ms", 0);
      if (doc.contains("refusals")) {
        const Json& arr = doc.at("refusals");
        std::vector<ServeRefusal> refusals;
        for (std::size_t i = 0; i < arr.size(); ++i) {
          const Json& one = arr.at(i);
          refusals.push_back(
              {one.at("view").as_string(), one.at("reason").as_string()});
        }
        e.refusals = RefusalList(std::move(refusals));
      }
      if (doc.contains("stale_views")) {
        e.stale_views = names_from_json(doc.at("stale_views"));
      }
      break;
    case EventKind::kIngest:
      e.relation = doc.at("relation").as_string();
      e.delta_rows = doc.at("delta_rows").as_number();
      if (doc.contains("marked_stale")) {
        e.marked_stale = names_from_json(doc.at("marked_stale"));
      }
      break;
    case EventKind::kRefresh:
      e.refreshed = names_from_json(doc.at("refreshed"));
      e.mode = string_or(doc, "mode");
      break;
  }
  return e;
}

std::string default_journal_path() {
  const char* env = std::getenv("MVD_JOURNAL");
  return env == nullptr ? std::string() : std::string(env);
}

EventJournal::EventJournal(std::size_t capacity, std::string sink_path)
    : capacity_(capacity == 0 ? 1 : capacity),
      sink_path_(std::move(sink_path)) {
  if (!sink_path_.empty()) {
    sink_.open(sink_path_, std::ios::app);
    if (!sink_) throw Error("cannot open journal sink '" + sink_path_ + "'");
  }
}

void EventJournal::append(JournalEvent&& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++appended_;
  if (sink_.is_open()) {
    sink_ << event.to_json().dump() << '\n';
    sink_.flush();
  }
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
  } else {
    ring_[next_] = std::move(event);
    next_ = (next_ + 1) % capacity_;
  }
}

std::vector<JournalEvent> EventJournal::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JournalEvent> out(ring_.begin() + next_, ring_.end());
  out.insert(out.end(), ring_.begin(), ring_.begin() + next_);
  return out;
}

std::uint64_t EventJournal::appended() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return appended_;
}

std::string EventJournal::to_jsonl(const std::vector<JournalEvent>& events) {
  std::string out;
  for (const JournalEvent& e : events) {
    out += e.to_json().dump();
    out += '\n';
  }
  return out;
}

std::vector<JournalEvent> EventJournal::parse_jsonl(
    const std::string& text, std::size_t* corrupt_lines) {
  std::vector<JournalEvent> out;
  std::size_t corrupt = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      out.push_back(JournalEvent::from_json(Json::parse(line)));
    } catch (const Error&) {
      // Torn write, truncated tail or hand edit: skip the line, keep
      // every event that survived.
      ++corrupt;
    }
  }
  if (corrupt_lines != nullptr) *corrupt_lines = corrupt;
  return out;
}

std::vector<JournalEvent> EventJournal::load(const std::string& path,
                                             std::size_t* corrupt_lines) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open journal '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_jsonl(buffer.str(), corrupt_lines);
}

}  // namespace mvd
