// Multi-vendor deployment: REST providers, traceroute clustering, and
// platform-aware placement working together.
//
// This is the paper's full §4 pipeline on realistic plumbing: six providers
// speak real vendor dialects (JSON+OAuth and XML+API-key) behind the
// five-call connector interface; traceroutes over a simulated topology
// reveal that three of them share one physical platform; the clustering
// feeds CyrusClient::AssignClusters, and cluster-aware consistent hashing
// then never co-locates two shares of a chunk on that platform.
#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "src/core/client.h"
#include "src/net/clustering.h"
#include "src/net/topology.h"
#include "src/rest/rest_connector.h"
#include "src/rest/rest_server.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

using namespace cyrus;

int main() {
  // --- Six vendors; three secretly run on the same "mega-cloud". ---
  struct VendorSpec {
    const char* name;
    ApiDialect dialect;
    const char* platform;
  };
  const VendorSpec vendors[] = {
      {"dropbex", ApiDialect::kJson, "megacloud"},
      {"boxly", ApiDialect::kJson, "megacloud"},
      {"cloudapp2", ApiDialect::kXml, "megacloud"},
      {"gdrivish", ApiDialect::kJson, "gplat"},
      {"s3ish", ApiDialect::kXml, "awsplat"},
      {"rackish", ApiDialect::kXml, "rackplat"},
  };

  // --- Routing topology reflecting the shared platform. ---
  std::map<std::string, PlatformSpec> platforms;
  for (const VendorSpec& vendor : vendors) {
    platforms[vendor.platform].name = vendor.platform;
    platforms[vendor.platform].csps.emplace_back(vendor.name);
    platforms[vendor.platform].backbone_latency_ms = 20.0 + platforms.size() * 5.0;
  }
  std::vector<PlatformSpec> platform_list;
  for (auto& [name, spec] : platforms) {
    platform_list.push_back(spec);
  }
  ProviderTopology topo = BuildProviderTopology(platform_list);

  // --- Infer clusters from traceroutes (paper §4.1 / Figure 3). ---
  auto tree = BuildRoutingTree(topo.topology, topo.client, topo.csp_nodes);
  if (!tree.ok()) {
    return 1;
  }
  auto clusters = ClusterByPlatform(*tree, topo.csp_nodes);
  if (!clusters.ok()) {
    return 1;
  }
  std::map<std::string, int> cluster_of;
  for (size_t i = 0; i < topo.csp_names.size(); ++i) {
    cluster_of[topo.csp_names[i]] = (*clusters)[i];
  }
  std::printf("traceroute clustering found %d platform clusters:\n",
              1 + *std::max_element(clusters->begin(), clusters->end()));
  for (const VendorSpec& vendor : vendors) {
    std::printf("  %-10s -> cluster %d\n", vendor.name, cluster_of[vendor.name]);
  }

  // --- CYRUS over the REST vendors, cluster-aware. ---
  CyrusConfig config;
  config.key_string = "multi vendor demo";
  config.client_id = "workstation";
  config.t = 2;
  config.epsilon = 1e-4;
  config.cluster_aware = true;  // at most one share per platform
  config.chunker = ChunkerOptions::ForTesting();
  auto client = std::move(CyrusClient::Create(config)).value();

  std::vector<int> cluster_ids;
  for (const VendorSpec& vendor : vendors) {
    RestVendorOptions options;
    options.id = vendor.name;
    options.dialect = vendor.dialect;
    auto server = std::make_shared<RestVendorServer>(options);
    auto connector = std::make_shared<RestConnector>(vendor.name, server);
    CspProfile profile;
    profile.download_bytes_per_sec = 2e6;
    profile.upload_bytes_per_sec = 1e6;
    profile.cluster = cluster_of[vendor.name];
    const std::string grant =
        (vendor.dialect == ApiDialect::kXml) ? "api-key" : "granted";
    if (!client->AddCsp(connector, profile, Credentials{grant}).ok()) {
      return 1;
    }
    cluster_ids.push_back(cluster_of[vendor.name]);
  }
  auto n = client->CurrentN();
  std::printf("\nEq. (1): n=%u shares per chunk across %zu placement domains\n",
              n.ok() ? *n : 0, client->registry().NumActiveClusters());

  // --- Store data and verify the placement invariant. ---
  Rng rng(6);
  Bytes archive(40 * 1024);
  for (auto& b : archive) {
    b = static_cast<uint8_t>(rng.Next());
  }
  auto put = client->Put("vault/archive.bin", archive);
  if (!put.ok()) {
    std::fprintf(stderr, "put failed: %s\n", put.status().ToString().c_str());
    return 1;
  }
  size_t inspected = 0;
  size_t violations = 0;
  const ChunkTable& table = client->chunk_table();
  for (const Sha1Digest& id : table.AllChunkIds()) {
    std::set<int> used_clusters;
    for (const ChunkShare& share : table.Find(id)->shares) {
      ++inspected;
      if (!used_clusters.insert(cluster_ids[share.csp]).second) {
        ++violations;
      }
    }
  }
  std::printf("stored %zu chunk(s) as %zu shares; platform co-location violations: %zu\n",
              put->total_chunks, inspected, violations);
  if (inspected == 0 || violations > 0) {
    return 1;
  }

  // --- The shared platform goes down entirely; data survives. ---
  std::printf("\nmega-cloud platform outage (3 providers at once)...\n");
  // (simulated by marking those CSPs failed - the client's view of it)
  for (size_t i = 0; i < std::size(vendors); ++i) {
    if (std::string(vendors[i].platform) == "megacloud") {
      (void)client->MarkCspFailed(static_cast<int>(i));
    }
  }
  auto get = client->Get("vault/archive.bin");
  std::printf("read during platform outage: %s (content intact: %s)\n",
              get.ok() ? "ok" : get.status().ToString().c_str(),
              (get.ok() && get->content == archive) ? "yes" : "no");
  std::printf(
      "\nWithout cluster-aware placement, a chunk with two shares on the mega-\n"
      "cloud would have dropped below t reachable shares in this outage.\n");
  return get.ok() && get->content == archive ? 0 : 1;
}
