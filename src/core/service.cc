#include "core/service.h"

#include <sstream>

#include "net/isp.h"

namespace odr::core {
namespace {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

}  // namespace

OdrService::OdrService(const Redirector& redirector,
                       const cloud::XuanfengCloud& cloud,
                       const workload::Catalog& catalog,
                       net::IpResolver resolver)
    : redirector_(redirector),
      cloud_(cloud),
      catalog_(catalog),
      resolver_(std::move(resolver)) {
  // Build the link-resolution index once; the catalog is immutable.
  for (const auto& f : catalog_.files()) {
    const auto parsed = parse_download_link(f.source_link);
    if (!parsed) continue;
    if (proto::is_p2p(parsed->protocol)) {
      by_hash_[parsed->content_hash] = f.index;
    } else {
      by_url_[parsed->host + parsed->path] = f.index;
    }
  }
}

std::optional<workload::FileIndex> OdrService::resolve_file(
    const DownloadLink& link) const {
  if (proto::is_p2p(link.protocol)) {
    auto it = by_hash_.find(link.content_hash);
    if (it != by_hash_.end()) return it->second;
    return std::nullopt;
  }
  auto it = by_url_.find(link.host + link.path);
  if (it != by_url_.end()) return it->second;
  return std::nullopt;
}

std::string OdrService::new_cookie() {
  return "odr-session-" + std::to_string(next_session_++);
}

ServiceResponse OdrService::handle(const ServiceRequest& request,
                                   SimTime now) {
  ServiceResponse resp;

  const auto link = parse_download_link(request.link);
  if (!link) {
    resp.error = "unsupported or malformed link (expected http/ftp/magnet/"
                 "ed2k)";
    return resp;
  }

  // Session handling: a cookie lets the user skip re-entering auxiliary
  // information (§6.1 footnote).
  Session session;
  std::string cookie = request.cookie;
  if (auto it = sessions_.find(cookie); it != sessions_.end()) {
    session = it->second;
  } else {
    cookie.clear();
  }
  if (request.access_bandwidth) {
    session.access_bandwidth = *request.access_bandwidth;
  }
  if (request.ap_model) {
    session.has_ap = !request.ap_model->empty();
  }
  if (request.ap_device) session.ap_device = request.ap_device;
  if (request.ap_filesystem) session.ap_filesystem = request.ap_filesystem;

  if (session.access_bandwidth <= 0.0) {
    resp.error = "access bandwidth unknown: measure it with your "
                 "PC-assistant software (e.g. Tencent PC Manager) and "
                 "submit the value";
    return resp;
  }

  if (cookie.empty()) cookie = new_cookie();
  sessions_[cookie] = session;
  resp.cookie = cookie;

  DecisionInput in;
  in.protocol = link->protocol;
  in.user_access_bandwidth = session.access_bandwidth;
  in.user_isp = resolver_.resolve(request.client_ip);
  in.has_smart_ap = session.has_ap;
  in.ap_device = session.ap_device;
  in.ap_filesystem = session.ap_filesystem;

  const auto file = resolve_file(*link);
  resp.known_file = file.has_value();
  if (file) {
    in.weekly_popularity =
        cloud_.content_db().weekly_popularity(*file, now);
    in.cached_in_cloud = cloud_.storage().contains(*file);
  }

  resp.input = in;
  resp.decision = redirector_.decide(in);
  resp.ok = true;
  return resp;
}

std::string ServiceResponse::to_json() const {
  std::ostringstream os;
  os << '{';
  os << "\"ok\":" << (ok ? "true" : "false");
  if (!ok) {
    os << ",\"error\":\"" << json_escape(error) << "\"}";
    return os.str();
  }
  os << ",\"route\":\"" << route_name(decision.route) << '"';
  os << ",\"rationale\":\"" << json_escape(decision.rationale) << '"';
  os << ",\"addressed_bottleneck\":" << decision.addressed_bottleneck;
  os << ",\"known_file\":" << (known_file ? "true" : "false");
  os << ",\"weekly_popularity\":" << input.weekly_popularity;
  os << ",\"cached_in_cloud\":" << (input.cached_in_cloud ? "true" : "false");
  os << ",\"user_isp\":\"" << net::isp_name(input.user_isp) << '"';
  os << ",\"cookie\":\"" << json_escape(cookie) << '"';
  os << '}';
  return os.str();
}

}  // namespace odr::core
