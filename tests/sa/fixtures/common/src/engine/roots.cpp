// Shared by both fixture trees: one stub per configured analysis root
// that lives outside the miniature pipeline.  `ccvc_sa --check` rejects
// a root matching no function as a configuration error, so every tree
// it checks must define them all.  Empty bodies: no findings, and
// unreachable from every pipeline closure.
namespace fx {

class NotifierSite {
 public:
  void on_client_message(int from);
  void apply_uplink(int from);
  void add_site(int site);
  void resync_site(int site);
  void remove_site(int site);
};

class ClientSite {
 public:
  void on_center_message(int msg);
};

class ReliableLink {
 public:
  void send(int frame);
  void on_frame(int frame);
};

class Channel {
 public:
  void send(int bytes);
};

void NotifierSite::on_client_message(int from) { (void)from; }
void NotifierSite::apply_uplink(int from) { (void)from; }
void NotifierSite::add_site(int site) { (void)site; }
void NotifierSite::resync_site(int site) { (void)site; }
void NotifierSite::remove_site(int site) { (void)site; }
void ClientSite::on_center_message(int msg) { (void)msg; }
void ReliableLink::send(int frame) { (void)frame; }
void ReliableLink::on_frame(int frame) { (void)frame; }
void Channel::send(int bytes) { (void)bytes; }

}  // namespace fx
