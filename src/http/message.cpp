#include "http/message.h"

#include "util/strings.h"

namespace sbroker::http {

const std::pair<std::string, std::string>* Headers::find(std::string_view name) const {
  for (const auto& entry : entries_) {
    if (util::iequals(entry.first, name)) return &entry;
  }
  return nullptr;
}

void Headers::set(std::string name, std::string value) {
  for (auto& entry : entries_) {
    if (util::iequals(entry.first, name)) {
      entry.first = std::move(name);  // last-set spelling wins
      entry.second = std::move(value);
      return;
    }
  }
  entries_.emplace_back(std::move(name), std::move(value));
}

std::optional<std::string> Headers::get(std::string_view name) const {
  const auto* entry = find(name);
  if (entry == nullptr) return std::nullopt;
  return entry->second;
}

std::optional<std::string_view> Headers::get_view(std::string_view name) const {
  const auto* entry = find(name);
  if (entry == nullptr) return std::nullopt;
  return std::string_view(entry->second);
}

namespace {

void serialize_headers(const Headers& headers, const std::string& body, std::string& out) {
  bool has_length = headers.has("Content-Length");
  for (const auto& [name, value] : headers.entries()) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  if (!has_length && !body.empty()) {
    out += "Content-Length: ";
    out += std::to_string(body.size());
    out += "\r\n";
  }
  out += "\r\n";
  out += body;
}

}  // namespace

void Request::serialize_into(std::string& out) const {
  out += method;
  out += ' ';
  out += target;
  out += ' ';
  out += version;
  out += "\r\n";
  serialize_headers(headers, body, out);
}

std::string Request::serialize() const {
  std::string out;
  serialize_into(out);
  return out;
}

void Response::serialize_into(std::string& out) const {
  out += version;
  out += ' ';
  out += std::to_string(status);
  out += ' ';
  out += reason;
  out += "\r\n";
  serialize_headers(headers, body, out);
}

std::string Response::serialize() const {
  std::string out;
  serialize_into(out);
  return out;
}

std::string_view reason_phrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 202:
      return "Accepted";
    case 206:
      return "Partial Content";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 500:
      return "Internal Server Error";
    case 502:
      return "Bad Gateway";
    case 503:
      return "Service Unavailable";
    case 504:
      return "Gateway Timeout";
    default:
      return "Unknown";
  }
}

Response make_response(int status, std::string body) {
  Response r;
  r.status = status;
  r.reason = std::string(reason_phrase(status));
  r.body = std::move(body);
  return r;
}

}  // namespace sbroker::http
