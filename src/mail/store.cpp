#include "mail/store.h"

namespace sbroker::mail {

uint64_t MailStore::deliver(std::string to, std::string from, std::string subject,
                            std::string body) {
  Mailbox& box = boxes_[to];
  uint64_t id = box.next_id++;
  Message msg;
  msg.id = id;
  msg.from = std::move(from);
  msg.to = std::move(to);
  msg.subject = std::move(subject);
  msg.body = std::move(body);
  box.messages.emplace(id, std::move(msg));
  ++delivered_;
  return id;
}

std::vector<Header> MailStore::list(const std::string& user) const {
  std::vector<Header> out;
  auto it = boxes_.find(user);
  if (it == boxes_.end()) return out;
  for (const auto& [id, msg] : it->second.messages) {
    out.push_back(Header{id, msg.from, msg.subject});
  }
  return out;
}

}  // namespace sbroker::mail
