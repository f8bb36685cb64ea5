"""Contributor identity normalization and organizational-unit resolution.

Contributors are keyed by lowercased, trimmed email addresses.  Email domains
fall into three observed kinds plus a catch-all: corporate domains (companies,
research institutes), virtual-organization domains, and email service
providers, where the contributor acts as an individual.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping

from .errors import ConfigError, IdentityError


class DomainClass(Enum):
    CORPORATE = "Corporate"
    VIRTUAL_ORG = "VirtualOrg"
    PROVIDER = "Provider"
    UNKNOWN = "Unknown"


# Webmail, and the forges' private addresses (user@users.noreply.github.com):
# each address is one person, not an organisation.  A subdomain of a noreply
# domain has the forge itself as its registrable form, so it stays Corporate.
DEFAULT_PROVIDER_DOMAINS = frozenset({
    "gmail.com", "googlemail.com", "hotmail.com", "yahoo.com", "outlook.com", "live.com", "msn.com", "aol.com",
    "icloud.com", "me.com", "protonmail.com", "proton.me", "gmx.de", "gmx.net", "web.de", "mail.ru", "yandex.ru",
    "qq.com", "163.com", "126.com", "foxmail.com", "users.noreply.github.com", "users.noreply.gitlab.com",
})
DEFAULT_VIRTUAL_ORG_DOMAINS = frozenset({"apache.org", "gnome.org"})

# Two-level public suffixes under which the registrable domain has three
# labels.  Deliberately small; extend via IdentityConfig.public_suffixes.
DEFAULT_PUBLIC_SUFFIXES = frozenset(
    {
        "ac.jp", "ac.uk", "co.in", "co.jp", "co.kr", "co.nz", "co.uk", "co.za",
        "com.au", "com.br", "com.cn", "com.mx", "com.sg", "com.tw", "edu.au",
        "gov.uk", "ne.jp", "net.au", "or.jp", "org.au", "org.uk",
    }
)

GROUPED_PROVIDER_KEY = "individuals"


@dataclass(frozen=True)
class OrgUnit:
    """A contributing unit: a domain-keyed organization or an individual."""

    key: str
    domain_class: DomainClass


@dataclass(frozen=True)
class IdentityConfig:
    provider_domains: frozenset[str] = DEFAULT_PROVIDER_DOMAINS
    virtual_org_domains: frozenset[str] = DEFAULT_VIRTUAL_ORG_DOMAINS
    domain_aliases: Mapping[str, str] = field(default_factory=dict)
    public_suffixes: frozenset[str] = DEFAULT_PUBLIC_SUFFIXES
    # When set, all provider-domain contributors collapse into one
    # "individuals" unit instead of counting as one-person units.
    group_providers: bool = False

    def __post_init__(self):
        overlap = self.provider_domains & self.virtual_org_domains
        if overlap:
            raise ConfigError(
                f"domains listed as both provider and virtual org: {sorted(overlap)}"
            )


def load_identity_config(path: str | Path) -> IdentityConfig:
    """Load config from JSON; any key present replaces the built-in default."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not JSON, or not UTF-8
        raise ConfigError(f"cannot load identity config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"identity config {path} must be a JSON object")
    options: dict = {}
    for key, value in data.items():
        if key in ("provider_domains", "virtual_org_domains", "public_suffixes"):
            if not isinstance(value, list) or not all(isinstance(d, str) for d in value):
                raise ConfigError(f"identity config {key} must be a list of strings")
            options[key] = frozenset(d.strip().lower() for d in value)
        elif key == "domain_aliases":
            if not isinstance(value, dict) or not all(isinstance(v, str) for v in value.values()):
                raise ConfigError("identity config domain_aliases must map domains to domains")
            options[key] = {k.strip().lower(): v.strip().lower() for k, v in value.items()}
        elif key == "group_providers":
            if type(value) is not bool:
                raise ConfigError(f"identity config group_providers must be true or false, got {value!r}")
            options[key] = value
        else:
            raise ConfigError(f"unknown identity config key {key!r}")
    return IdentityConfig(**options)


def normalize_email(raw: str) -> str:
    """Lowercase and trim; the result must contain exactly one "@" with a
    non-empty domain part.  No alias merging across distinct addresses."""
    normalized = raw.strip().lower()
    if normalized.count("@") != 1:
        raise IdentityError(f"not a usable email address: {raw!r}")
    domain = normalized.rsplit("@", 1)[1]
    if not domain:
        raise IdentityError(f"empty domain part: {raw!r}")
    return normalized


def registrable_domain(domain: str, public_suffixes: frozenset[str] = DEFAULT_PUBLIC_SUFFIXES) -> str | None:
    """Last two labels, or three when the last two form a public suffix.

    Returns None when no registrable form exists (single label, empty labels,
    all-numeric labels such as IP addresses, or the domain being a bare
    public suffix).
    """
    labels = domain.split(".")
    if len(labels) < 2 or any(not label for label in labels):
        return None
    if all(label.isdigit() for label in labels):
        return None
    tail2 = ".".join(labels[-2:])
    if tail2 in public_suffixes:
        if len(labels) < 3:
            return None
        return ".".join(labels[-3:])
    return tail2


def classify_domain(domain: str, config: IdentityConfig = IdentityConfig()) -> DomainClass:
    """Total function: every domain maps to exactly one class.

    Membership in the provider/virtual-org lists is checked for the exact
    domain and for its registrable form, so subdomain addresses classify the
    same as the parent domain.
    """
    domain = domain.strip().lower()
    if domain in config.provider_domains:
        return DomainClass.PROVIDER
    if domain in config.virtual_org_domains:
        return DomainClass.VIRTUAL_ORG
    registrable = registrable_domain(domain, config.public_suffixes)
    if registrable is None:
        return DomainClass.UNKNOWN
    if registrable in config.provider_domains:
        return DomainClass.PROVIDER
    if registrable in config.virtual_org_domains:
        return DomainClass.VIRTUAL_ORG
    return DomainClass.CORPORATE


def resolve_org(key: str, config: IdentityConfig = IdentityConfig()) -> OrgUnit:
    """Map a normalized contributor key to its contributing unit.

    Domain aliases apply once (subsidiary -> parent), then classification.
    Provider-domain contributors are one-person units keyed by the full
    address (or one collective unit when config.group_providers is set);
    corporate and virtual-org contributors are keyed by the registrable
    domain; unclassifiable domains are keyed as-is.
    """
    domain = key.rsplit("@", 1)[1]
    domain = config.domain_aliases.get(domain, domain)
    domain_class = classify_domain(domain, config)
    if domain_class is DomainClass.PROVIDER:
        if config.group_providers:
            return OrgUnit(GROUPED_PROVIDER_KEY, DomainClass.PROVIDER)
        return OrgUnit(key, DomainClass.PROVIDER)
    if domain_class is DomainClass.UNKNOWN:
        return OrgUnit(domain, DomainClass.UNKNOWN)
    registrable = registrable_domain(domain, config.public_suffixes)
    return OrgUnit(registrable if registrable is not None else domain, domain_class)
