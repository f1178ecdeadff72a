"""Unit tests for the generic :class:`repro._registry.Registry`.

The emit, engine and target registries are thin bindings over this one
class; their own suites check the public functions, these check the
shared semantics directly on a private binding.
"""

import pytest

from repro._registry import Registry


class WidgetError(Exception):
    pass


class Widget:
    def __init__(self, name, aliases=(), tag=None):
        self.name = name
        self.aliases = tuple(aliases)
        self.run = lambda: tag


def make_registry(builtins=None):
    return Registry(
        error=WidgetError,
        noun="widget",
        plural="widgets",
        protocol="Widget",
        required=("name", "run"),
        passthrough=("name", "run"),
        expected="a widget name",
        builtins=builtins,
    )


@pytest.fixture
def registry():
    return make_registry(
        lambda: [Widget("alpha", ("a", "first")), Widget("beta")]
    )


class TestBuiltins:
    def test_loaded_lazily_and_once(self):
        calls = []

        def loader():
            calls.append(1)
            return [Widget("alpha")]

        reg = make_registry(loader)
        assert calls == []
        reg.get("alpha")
        reg.names()
        reg.register(Widget("gamma"))
        assert calls == [1]

    def test_listed_in_registration_order(self, registry):
        assert registry.names() == ("alpha", "beta")

    def test_registration_before_first_lookup_keeps_builtins(self, registry):
        registry.register(Widget("gamma"))
        assert registry.names() == ("alpha", "beta", "gamma")


class TestLookup:
    @pytest.mark.parametrize("spec", ["alpha", "ALPHA", "a", "First"])
    def test_case_insensitive_name_and_alias(self, registry, spec):
        assert registry.get(spec).name == "alpha"

    def test_protocol_object_passes_through(self, registry):
        widget = Widget("unregistered")
        assert registry.get(widget) is widget

    def test_non_protocol_spec_rejected(self, registry):
        with pytest.raises(
            WidgetError, match="expected a widget name or Widget, got int"
        ):
            registry.get(3)

    def test_unknown_name_lists_registered_with_aliases(self, registry):
        with pytest.raises(WidgetError) as info:
            registry.get("nope")
        assert str(info.value) == (
            "unknown widget 'nope'; registered widgets: "
            "alpha (aka a, first), beta"
        )


class TestRegistration:
    def test_register_unregister_round_trip(self, registry):
        widget = Widget("gamma", ("g",))
        assert registry.register(widget) is widget
        assert registry.get("g") is widget
        assert registry.unregister("gamma") is widget
        assert registry.names() == ("alpha", "beta")
        with pytest.raises(WidgetError, match="unknown widget 'g'"):
            registry.get("g")

    def test_unregister_takes_canonical_name_only(self, registry):
        with pytest.raises(WidgetError, match="unknown widget 'a'"):
            registry.unregister("a")
        assert registry.get("a").name == "alpha"

    def test_missing_attribute_names_protocol(self, registry):
        class NoRun:
            name = "broken"

        with pytest.raises(
            WidgetError,
            match="does not satisfy the Widget protocol: missing 'run'",
        ):
            registry.register(NoRun())
        assert "broken" not in registry.names()

    @pytest.mark.parametrize("widget", [
        Widget("Alpha"), Widget("gamma", ("FIRST",)), Widget("a"),
    ])
    def test_collision_without_overwrite_raises(self, registry, widget):
        with pytest.raises(WidgetError, match="overwrite=True"):
            registry.register(widget)
        assert registry.names() == ("alpha", "beta")

    def test_overwrite_keeps_listing_position(self, registry):
        registry.register(Widget("gamma"))
        replacement = Widget("alpha", tag="new")
        registry.register(replacement, overwrite=True)
        assert registry.names() == ("alpha", "beta", "gamma")
        assert registry.get("alpha") is replacement
        # the replaced entry's old aliases went with it
        with pytest.raises(WidgetError):
            registry.get("first")

    def test_overwrite_alias_evicts_shadowed_entry(self, registry):
        registry.register(Widget("gamma", ("beta",)), overwrite=True)
        assert registry.names() == ("alpha", "gamma")
        assert registry.get("beta").name == "gamma"
        assert registry.describe() == "alpha (aka a, first), gamma (aka beta)"

    def test_overwrite_reassigns_alias_in_listing(self, registry):
        registry.register(Widget("gamma", ("first",)), overwrite=True)
        assert registry.get("first").name == "gamma"
        assert registry.describe() == "alpha (aka a), beta, gamma (aka first)"


def test_one_registry_class_backs_every_surface():
    from repro.compiler import target
    from repro.emit import registry as emit_registry
    from repro.engines import registry as engine_registry

    for binding in (
        emit_registry._FORMATS, engine_registry._ENGINES, target._TARGETS
    ):
        assert type(binding) is Registry
