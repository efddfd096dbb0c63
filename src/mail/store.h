// Mini mail store.
//
// The third backend service of the paper's Figure 1. Mailboxes are keyed by
// user; messages get per-mailbox sequence ids; the operations are the two a
// webmail front end's inbox page needs: deliver and list headers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sbroker::mail {

struct Message {
  uint64_t id = 0;
  std::string from;
  std::string to;
  std::string subject;
  std::string body;
};

/// Header line used by LIST: "<id>\t<from>\t<subject>".
struct Header {
  uint64_t id = 0;
  std::string from;
  std::string subject;
};

class MailStore {
 public:
  /// Delivers into `to`'s mailbox (created on demand); returns the id.
  uint64_t deliver(std::string to, std::string from, std::string subject,
                   std::string body);

  /// Headers in ascending id order; empty for unknown users.
  std::vector<Header> list(const std::string& user) const;

  uint64_t total_delivered() const { return delivered_; }

 private:
  struct Mailbox {
    uint64_t next_id = 1;
    std::map<uint64_t, Message> messages;
  };

  std::map<std::string, Mailbox> boxes_;
  uint64_t delivered_ = 0;
};

}  // namespace sbroker::mail
