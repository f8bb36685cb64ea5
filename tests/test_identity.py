import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from forgepulse import (
    ConfigError,
    DomainClass,
    IdentityConfig,
    IdentityError,
    OrgUnit,
    classify_domain,
    load_identity_config,
    normalize_email,
    registrable_domain,
    resolve_org,
)


def test_normalize_lowercases_and_trims():
    assert normalize_email(" Alice@Intel.COM ") == "alice@intel.com"


def test_normalize_already_normal():
    assert normalize_email("bob@gmail.com") == "bob@gmail.com"


@pytest.mark.parametrize("raw", ["no-at-sign", "two@@ats", "a@b@c", "trailing@", ""])
def test_normalize_rejects_unusable(raw):
    with pytest.raises(IdentityError):
        normalize_email(raw)


@pytest.mark.parametrize(
    "domain,expected",
    [
        ("intel.com", DomainClass.CORPORATE),
        ("berkeley.edu", DomainClass.CORPORATE),
        ("apache.org", DomainClass.VIRTUAL_ORG),
        ("gnome.org", DomainClass.VIRTUAL_ORG),
        ("gmail.com", DomainClass.PROVIDER),
        ("hotmail.com", DomainClass.PROVIDER),
        ("localhost", DomainClass.UNKNOWN),
        ("my-laptop", DomainClass.UNKNOWN),
        ("192.168.0.1", DomainClass.UNKNOWN),
        ("foo.co.uk", DomainClass.CORPORATE),
        ("dev.apache.org", DomainClass.VIRTUAL_ORG),  # registrable form matches
        ("mail.gmail.com", DomainClass.PROVIDER),
    ],
)
def test_classify_domain(domain, expected):
    assert classify_domain(domain) is expected


def test_classification_is_total_and_deterministic():
    config = IdentityConfig()
    for domain in ["", ".", "..", "a.", ".b", "x", "weird..name"]:
        first = classify_domain(domain, config)
        assert first is classify_domain(domain, config)
        assert isinstance(first, DomainClass)


def test_registrable_domain_extraction():
    assert registrable_domain("research.berkeley.edu") == "berkeley.edu"
    assert registrable_domain("intel.com") == "intel.com"
    assert registrable_domain("a.b.foo.co.uk") == "foo.co.uk"
    assert registrable_domain("co.uk") is None
    assert registrable_domain("localhost") is None


def test_resolve_corporate():
    assert resolve_org("alice@intel.com") == OrgUnit("intel.com", DomainClass.CORPORATE)


def test_resolve_provider_individual():
    assert resolve_org("bob@gmail.com") == OrgUnit("bob@gmail.com", DomainClass.PROVIDER)


def test_resolve_provider_grouped():
    config = IdentityConfig(group_providers=True)
    assert resolve_org("bob@gmail.com", config) == OrgUnit("individuals", DomainClass.PROVIDER)
    assert resolve_org("carol@gmail.com", config) == OrgUnit("individuals", DomainClass.PROVIDER)


def test_resolve_alias_then_classify():
    config = IdentityConfig(domain_aliases={"research.berkeley.edu": "berkeley.edu"})
    unit = resolve_org("carol@research.berkeley.edu", config)
    assert unit == OrgUnit("berkeley.edu", DomainClass.CORPORATE)


def test_resolve_subdomain_collapses_to_registrable():
    unit = resolve_org("dev@build.intel.com")
    assert unit == OrgUnit("intel.com", DomainClass.CORPORATE)


def test_resolve_unknown_keyed_by_domain():
    assert resolve_org("root@localhost") == OrgUnit("localhost", DomainClass.UNKNOWN)


def test_config_rejects_overlap():
    with pytest.raises(ConfigError):
        IdentityConfig(
            provider_domains=frozenset({"gmail.com", "shared.org"}),
            virtual_org_domains=frozenset({"shared.org"}),
        )


def test_load_identity_config(tmp_path):
    path = tmp_path / "identity.json"
    path.write_text(
        '{"provider_domains": ["Mailinator.COM"], "virtual_org_domains": ["apache.org"],'
        ' "domain_aliases": {"OLD.example.com": "example.com"}, "public_suffixes": ["co.uk"]}'
    )
    config = load_identity_config(path)
    assert config.provider_domains == frozenset({"mailinator.com"})
    assert classify_domain("gmail.com", config) is DomainClass.CORPORATE  # replaced, not merged
    assert resolve_org("dev@old.example.com", config).key == "example.com"


def test_load_identity_config_bad_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError):
        load_identity_config(path)
    path.write_bytes(b'{"provider_domains": ["\xff"]}')
    with pytest.raises(ConfigError, match="cannot load identity config"):
        load_identity_config(path)
    path.write_text("[" * 100000 + "]" * 100000)  # nested past the recursion limit
    with pytest.raises(ConfigError, match="cannot load identity config"):
        load_identity_config(path)


@pytest.mark.parametrize(
    "document, message",
    [
        ({"provider_domains": 5}, "provider_domains must be a list of strings"),
        ({"public_suffixes": "co.uk"}, "public_suffixes must be a list of strings"),
        ({"virtual_org_domains": ["apache.org", 1]}, "virtual_org_domains must be a list of strings"),
        ({"domain_aliases": ["a.com"]}, "domain_aliases must map domains to domains"),
        ({"domain_aliases": {"a.com": None}}, "domain_aliases must map domains to domains"),
        ({"group_providers": "no"}, "group_providers must be true or false"),
    ],
)
def test_load_identity_config_checks_types(tmp_path, document, message):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(document))
    with pytest.raises(ConfigError, match=message):
        load_identity_config(path)


emails = st.tuples(
    st.text(alphabet="abcdefghij0123456789._", min_size=1, max_size=12),
    st.sampled_from(
        ["intel.com", "gmail.com", "apache.org", "x.co.uk", "localhost", "berkeley.edu"]
    ),
).map(lambda pair: f" {pair[0]}@{pair[1]} ".upper())


@given(raw=emails)
def test_normalize_is_idempotent(raw):
    once = normalize_email(raw)
    assert normalize_email(once) == once


@given(raw=emails)
def test_equal_keys_resolve_to_equal_units(raw):
    config = IdentityConfig()
    key = normalize_email(raw)
    assert resolve_org(key, config) == resolve_org(normalize_email(key), config)


@given(raw=emails, extra_provider=st.sampled_from(["intel.com", "berkeley.edu", "x.co.uk"]))
def test_provider_list_changes_grouping_not_keys(raw, extra_provider):
    # the contributor key is independent of classification config
    key_default = normalize_email(raw)
    bigger = IdentityConfig(
        provider_domains=IdentityConfig().provider_domains | {extra_provider}
    )
    assert normalize_email(raw) == key_default
    unit = resolve_org(key_default, bigger)
    assert isinstance(unit, OrgUnit)
