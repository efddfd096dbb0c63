// Intranet portal — the paper's Figure 2 topology, end to end.
//
// "Dynamic applications A and B ... only pass messages to individual service
// brokers" fronting the Database, Mail and LDAP servers. An employee
// dashboard page needs all three: today's report rows from the database, the
// inbox listing from the mail server, and the team roster from the
// directory. The page generator sends the three broker messages in parallel
// (Section III, "Multitasking") and composes the page when the last reply
// lands.
//
//   $ ./intranet_portal [pages=40]
#include <cstdio>

#include "db/dataset.h"
#include "ldap/sim_backend.h"
#include "mail/sim_backend.h"
#include "obs/histogram.h"
#include "srv/broker_host.h"
#include "srv/db_backend.h"
#include "util/config.h"

using namespace sbroker;

namespace {

ldap::Directory build_directory() {
  ldap::Directory dir;
  auto add = [&](std::string dn,
                 std::vector<std::pair<std::string, std::string>> attrs) {
    ldap::Entry e;
    e.dn = std::move(dn);
    for (auto& [k, v] : attrs) e.attributes.emplace(k, v);
    dir.add(std::move(e));
  };
  add("o=acme", {{"o", "acme"}});
  add("ou=eng,o=acme", {{"ou", "eng"}});
  const char* people[] = {"joe", "jane", "sam", "ada", "lin"};
  for (const char* name : people) {
    add(std::string("cn=") + name + ",ou=eng,o=acme",
        {{"cn", name}, {"mail", std::string(name) + "@acme.example"}, {"team", "eng"}});
  }
  return dir;
}

}  // namespace

int main(int argc, char** argv) {
  util::Config cfg = util::Config::from_args(argc, argv);
  int pages = static_cast<int>(cfg.get_int("pages", 40));

  sim::Simulation sim;

  // The three backend services of Figure 1.
  db::Database database;
  util::Rng rng(5);
  db::load_benchmark_table(database, rng, 10000, 20);
  auto db_backend =
      std::make_shared<srv::SimDbBackend>(sim, database, srv::DbBackendConfig{});

  ldap::Directory directory = build_directory();
  auto ldap_backend =
      std::make_shared<ldap::SimLdapBackend>(sim, directory, ldap::LdapBackendConfig{});

  mail::MailStore mailstore;
  for (int i = 0; i < 8; ++i) {
    mailstore.deliver("joe", "jane", "status " + std::to_string(i), "…");
  }
  auto mail_backend =
      std::make_shared<mail::SimMailBackend>(sim, mailstore, mail::MailBackendConfig{});

  // One broker per service ("It is per service based").
  auto make_host = [&](const std::string& name, uint64_t seed, bool cache) {
    core::BrokerConfig broker_cfg;
    broker_cfg.rules = core::QosRules{3, 30.0};
    broker_cfg.enable_cache = cache;
    broker_cfg.cache_ttl = 20.0;
    return std::make_unique<srv::BrokerHost>(sim, name, broker_cfg, sim::ipc_profile(),
                                             seed);
  };
  auto db_broker = make_host("db-broker", 801, true);
  db_broker->broker().add_backend(db_backend);
  auto ldap_broker = make_host("ldap-broker", 802, true);  // rosters cache well
  ldap_broker->broker().add_backend(ldap_backend);
  auto mail_broker = make_host("mail-broker", 803, false);  // inboxes must be fresh
  mail_broker->broker().add_backend(mail_backend);

  obs::LatencyHistogram page_latency;
  uint64_t next_id = 1;
  int panels_failed = 0;

  auto compose = [&](double at) {
    sim.at(at, [&]() {
      double started = sim.now();
      auto remaining = std::make_shared<int>(3);
      auto panel_done = [&, started, remaining](const http::BrokerReply& reply) {
        if (reply.fidelity == http::Fidelity::kError) ++panels_failed;
        if (--*remaining == 0) page_latency.record_seconds(sim.now() - started);
      };
      auto send = [&](srv::BrokerHost& host, std::string payload) {
        http::BrokerRequest req;
        req.request_id = next_id++;
        req.qos_level = 2;
        req.payload = std::move(payload);
        host.submit(req, panel_done);
      };
      // Parallel fan-out to the three services.
      send(*db_broker, "SELECT id, score FROM records WHERE category = 7 LIMIT 20");
      send(*ldap_broker, "SEARCH base=ou=eng,o=acme scope=one filter=(team=eng)");
      send(*mail_broker, "LIST|joe");
    });
  };

  for (int i = 0; i < pages; ++i) compose(0.5 * i);
  sim.run();

  std::printf("intranet portal: %d dashboard pages, 3 services each\n\n", pages);
  std::printf("  page latency:  mean %.2f ms, p99 %.2f ms\n",
              page_latency.mean_seconds() * 1000, page_latency.p99() * 1000);
  std::printf("  panel errors:  %d\n", panels_failed);
  std::printf("  db accesses:   %llu (cache absorbed the repeats)\n",
              static_cast<unsigned long long>(db_backend->calls()));
  std::printf("  ldap accesses: %llu\n",
              static_cast<unsigned long long>(ldap_backend->calls()));
  std::printf("  mail accesses: %llu (uncached by policy)\n",
              static_cast<unsigned long long>(mail_backend->calls()));
  std::printf("\nOne broker per service, messages instead of API calls — the exact\n"
              "topology of the paper's Figure 2.\n");
  return 0;
}
